"""Holm–de Lichtenberg–Thorup fully-dynamic connectivity.

Amortized O(log² n) edge insertion/deletion and O(log n) connectivity
queries, versus O(component) deletions for the clusterer's
:class:`~repro.connectivity.labels.ComponentLabels`. Experiment E9b
compares the two on their worst cases.

Structure recap (Holm, de Lichtenberg, Thorup, JACM 2001)
---------------------------------------------------------
Every edge ``e`` carries a level ``ℓ(e) ≥ 0``. ``F_i`` denotes the
spanning forest of the sub-graph formed by edges of level ``≥ i``; the
forests are nested (``F_0 ⊇ F_1 ⊇ …``) and ``F_0`` spans the whole
graph. A tree edge of level ``ℓ`` is present in ``F_0 … F_ℓ``. The key
invariant: every component of ``F_i`` has at most ``n / 2^i`` vertices,
so levels never exceed ``log₂ n``.

* **Insert** at level 0: tree edge if the endpoints were disconnected,
  otherwise a non-tree edge stored in per-level adjacency sets.
* **Delete** of a non-tree edge: O(log n) bookkeeping.
* **Delete** of a tree edge ``{u, v}`` at level ``ℓ``: cut it from
  ``F_0 … F_ℓ``, then search for a replacement from level ``ℓ`` down to
  0. At each level the smaller side ``T_u`` has its level-``i`` tree
  edges *promoted* to ``i+1`` (they can afford it by the size invariant)
  and its level-``i`` non-tree edges are scanned: an edge crossing to
  the other side is a replacement (reconnect, stop); an internal edge is
  promoted. Every scanned edge either reconnects or rises one level, so
  each edge is touched O(log n) times over its lifetime.

The per-level forests are Euler-tour trees
(:class:`repro.connectivity.ett.EulerTourForest`) whose aggregate marks
let us enumerate level-``i`` tree edges and vertices with level-``i``
non-tree edges in O(log n) per item.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.connectivity.base import DynamicConnectivity
from repro.connectivity.ett import EulerTourForest
from repro.streams.events import Edge, Vertex, canonical_edge
from repro.util.rng import child_seed

__all__ = ["HDTConnectivity"]


class HDTConnectivity(DynamicConnectivity):
    """Fully-dynamic connectivity with poly-logarithmic updates."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        # Level-indexed forests; grown lazily as edges get promoted.
        self._forests: List[EulerTourForest] = [EulerTourForest(child_seed(seed, 0))]
        # edge -> (level, is_tree)
        self._edges: Dict[Edge, Tuple[int, bool]] = {}
        # Per-level non-tree adjacency: level -> vertex -> set of neighbours.
        self._nontree: List[Dict[Vertex, Set[Vertex]]] = [{}]
        self._num_components = 0

    # ------------------------------------------------------------------
    # Level plumbing
    # ------------------------------------------------------------------
    def _forest(self, level: int) -> EulerTourForest:
        while len(self._forests) <= level:
            self._forests.append(
                EulerTourForest(child_seed(self._seed, len(self._forests)))
            )
            self._nontree.append({})
        return self._forests[level]

    def _add_nontree(self, level: int, u: Vertex, v: Vertex) -> None:
        forest = self._forest(level)
        forest.ensure_vertex(u)
        forest.ensure_vertex(v)
        table = self._nontree[level]
        for a, b in ((u, v), (v, u)):
            bucket = table.setdefault(a, set())
            bucket.add(b)
            if len(bucket) == 1:
                forest.set_vertex_mark(a, True)

    def _remove_nontree(self, level: int, u: Vertex, v: Vertex) -> None:
        forest = self._forests[level]
        table = self._nontree[level]
        for a, b in ((u, v), (v, u)):
            bucket = table[a]
            bucket.discard(b)
            if not bucket:
                del table[a]
                forest.set_vertex_mark(a, False)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> bool:
        if self._forests[0].add_vertex(v):
            self._num_components += 1
            return True
        return False

    def insert_edge(self, u: Vertex, v: Vertex) -> bool:
        u, v = canonical_edge(u, v)
        edge = (u, v)
        if edge in self._edges:
            raise ValueError(f"edge ({u!r}, {v!r}) already present")
        self.add_vertex(u)
        self.add_vertex(v)
        forest0 = self._forests[0]
        if forest0.connected(u, v):
            self._edges[edge] = (0, False)
            self._add_nontree(0, u, v)
            return False
        forest0.link(u, v)
        forest0.set_edge_mark(u, v, True)
        self._edges[edge] = (0, True)
        self._num_components -= 1
        return True

    def delete_edge(self, u: Vertex, v: Vertex) -> bool:
        u, v = canonical_edge(u, v)
        edge = (u, v)
        info = self._edges.pop(edge, None)
        if info is None:
            raise KeyError(f"edge ({u!r}, {v!r}) not present")
        level, is_tree = info
        if not is_tree:
            self._remove_nontree(level, u, v)
            return False
        # Cut the tree edge out of every forest that contains it.
        self._forests[level].set_edge_mark(u, v, False)
        for i in range(level, -1, -1):
            self._forests[i].cut(u, v)
        replaced = self._search_replacement(u, v, level)
        if not replaced:
            self._num_components += 1
            return True
        return False

    def _search_replacement(self, u: Vertex, v: Vertex, level: int) -> bool:
        """Find a replacement for the deleted tree edge, highest level first."""
        for i in range(level, -1, -1):
            forest = self._forests[i]
            # Work on the smaller side to preserve the size invariant.
            if forest.component_size(u) <= forest.component_size(v):
                small = u
            else:
                small = v
            self._promote_tree_edges(i, small)
            if self._scan_nontree_edges(i, small, u, v):
                return True
        return False

    def _promote_tree_edges(self, level: int, small: Vertex) -> None:
        """Raise all level-``level`` tree edges inside ``small``'s tree."""
        forest = self._forests[level]
        upper = self._forest(level + 1)
        while True:
            arc = forest.find_marked_edge(small)
            if arc is None:
                return
            x, y = arc
            forest.set_edge_mark(x, y, False)
            self._edges[(x, y)] = (level + 1, True)
            upper.ensure_vertex(x)
            upper.ensure_vertex(y)
            upper.link(x, y)
            upper.set_edge_mark(x, y, True)

    def _scan_nontree_edges(
        self, level: int, small: Vertex, u: Vertex, v: Vertex
    ) -> bool:
        """Scan level-``level`` non-tree edges incident to ``small``'s tree.

        Crossing edges become the replacement tree edge (returns True);
        internal edges are promoted one level.
        """
        forest = self._forests[level]
        small_root = forest.component_id(small)
        while True:
            x = forest.find_marked_vertex(small)
            if x is None:
                return False
            bucket = self._nontree[level][x]
            while bucket:
                y = next(iter(bucket))
                self._remove_nontree(level, x, y)
                if forest.component_id(y) != small_root:
                    # Replacement found: becomes a tree edge at this level.
                    self._edges[canonical_edge(x, y)] = (level, True)
                    for i in range(level, -1, -1):
                        self._forests[i].link(x, y)
                    cx, cy = canonical_edge(x, y)
                    forest.set_edge_mark(cx, cy, True)
                    return True
                self._edges[canonical_edge(x, y)] = (level + 1, False)
                self._add_nontree(level + 1, x, y)
                bucket = self._nontree[level].get(x)
                if bucket is None:
                    break

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if u == v:
            return False
        return canonical_edge(u, v) in self._edges

    def edge_level(self, u: Vertex, v: Vertex) -> int:
        """Current HDT level of edge ``{u, v}`` (diagnostics/tests)."""
        return self._edges[canonical_edge(u, v)][0]

    def is_tree_edge(self, u: Vertex, v: Vertex) -> bool:
        """True if ``{u, v}`` is currently a spanning-forest edge."""
        return self._edges[canonical_edge(u, v)][1]

    def connected(self, u: Vertex, v: Vertex) -> bool:
        return self._forests[0].connected(u, v)

    def component_size(self, v: Vertex) -> int:
        return self._forests[0].component_size(v)

    def component_members(self, v: Vertex) -> Set[Vertex]:
        return self._forests[0].component_members(v)

    def component_id(self, v: Vertex) -> int:
        """Opaque component identifier, valid until the next update."""
        return self._forests[0].component_id(v)

    @property
    def num_vertices(self) -> int:
        return self._forests[0].num_vertices

    @property
    def num_edges(self) -> int:
        """Number of edges currently stored (tree + non-tree)."""
        return len(self._edges)

    @property
    def num_components(self) -> int:
        return self._num_components

    @property
    def num_levels(self) -> int:
        """Number of levels currently materialized (diagnostics)."""
        return len(self._forests)

    def vertices(self) -> Iterator[Vertex]:
        return self._forests[0].vertices()

    def edges(self) -> Iterator[Edge]:
        """Iterate all stored edges in canonical form."""
        return iter(self._edges)

    def remove_vertex_if_isolated(self, v: Vertex) -> bool:
        # Isolation check: the vertex must be a singleton in F_0 and carry
        # no non-tree edges at any level (it cannot: non-tree edges imply
        # connectivity). Dropping singleton loop nodes from every forest
        # keeps the structure lean for vertex-deletion workloads.
        forest0 = self._forests[0]
        if v not in forest0 or forest0.component_size(v) != 1:
            return False
        for level, forest in enumerate(self._forests):
            if v in forest:
                if not forest.remove_isolated_vertex(v):  # pragma: no cover
                    raise AssertionError("isolated in F_0 but linked above")
                self._nontree[level].pop(v, None)
        self._num_components -= 1
        return True
