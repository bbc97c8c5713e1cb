"""Dynamic undirected graph backed by adjacency sets.

:class:`AdjacencyGraph` is the mutable graph substrate: the streaming
clusterer keeps one for the *full* graph (needed for vertex deletions,
strict stream validation and quality metrics) and the reservoir keeps
the sampled sub-graph structure in its connectivity index.

Design notes
------------
* Undirected, no self-loops, no parallel edges — matching the paper's
  stream model after canonicalization.
* ``add_edge``/``remove_edge`` are O(1); edge iteration is O(m).
* Vertices may exist with degree zero (explicit ADD_VERTEX events).

Storage modes
-------------
The default mode keys adjacency dicts directly by the vertex labels.
Passing an ``interner`` (:class:`~repro.graph.intern.VertexInterner`)
switches the graph to **int-ID mode**: adjacency is a plain list indexed
by dense vertex id (``None`` marks an absent vertex), neighbour sets are
int-keyed dicts, and the ``*_ids`` methods mutate/query without touching
labels at all — this is the representation the clusterer's hot path
uses. The label-facing API (``has_vertex``, ``edges``, ``neighbors``,
``get_state``, …) keeps working in either mode; in id mode it translates
through the interner at the boundary.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set

from repro.streams.events import Edge, Vertex, canonical_edge

__all__ = ["AdjacencyGraph"]

_MASK32 = 0xFFFFFFFF


class AdjacencyGraph:
    """A dynamic undirected simple graph.

    >>> g = AdjacencyGraph()
    >>> g.add_edge(1, 2)
    True
    >>> g.add_edge(2, 1)   # duplicate, canonicalized away
    False
    >>> g.num_edges, g.num_vertices
    (1, 2)
    """

    __slots__ = ("_intern", "_adj", "_id_count", "_num_edges")

    def __init__(
        self, edges: Iterable[Edge] | None = None, *, interner=None
    ) -> None:
        # Neighbour "sets" are insertion-ordered dicts so that edge and
        # vertex iteration order is a pure function of the mutation
        # sequence — serialized state must round-trip byte-identically
        # through get_state/from_state (hash-ordered sets do not).
        self._intern = interner
        # Label mode: Dict[Vertex, Dict[Vertex, None]].
        # Id mode: List[Optional[Dict[int, None]]] indexed by vertex id
        # (id-order iteration is deterministic and restore-stable, since
        # the interner itself round-trips through checkpoints).
        self._adj = {} if interner is None else []
        self._id_count = 0
        self._num_edges = 0
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Mutation (label API, both modes)
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> bool:
        """Add an isolated vertex; returns False if it already exists."""
        if self._intern is not None:
            return self.add_vertex_id(self._intern.intern(v))
        if v in self._adj:
            return False
        self._adj[v] = {}
        return True

    def add_edge(self, u: Vertex, v: Vertex) -> bool:
        """Add the undirected edge ``{u, v}``; returns False if present.

        Endpoints are created implicitly, mirroring how streaming graphs
        introduce vertices through their first edge.
        """
        u, v = canonical_edge(u, v)
        if self._intern is not None:
            return self.add_edge_ids(self._intern.intern(u), self._intern.intern(v))
        return self.add_canonical_edge(u, v)

    def add_canonical_edge(self, u: Vertex, v: Vertex) -> bool:
        """:meth:`add_edge` for endpoints already in canonical order.

        Skips re-canonicalization — the caller guarantees ``(u, v)`` is
        the canonical form and not a self-loop. (In id mode the hot path
        uses :meth:`add_edge_ids` instead.)
        """
        if self._intern is not None:
            return self.add_edge_ids(self._intern.intern(u), self._intern.intern(v))
        neighbours = self._adj.setdefault(u, {})
        if v in neighbours:
            return False
        neighbours[v] = None
        self._adj.setdefault(v, {})[u] = None
        self._num_edges += 1
        return True

    def remove_edge(self, u: Vertex, v: Vertex) -> bool:
        """Remove the edge ``{u, v}``; returns False if it was absent."""
        u, v = canonical_edge(u, v)
        if self._intern is not None:
            id_of = self._intern.id_of
            uid = id_of(u)
            vid = id_of(v)
            if uid is None or vid is None:
                return False
            return self.remove_edge_ids(uid, vid)
        return self.remove_canonical_edge(u, v)

    def remove_canonical_edge(self, u: Vertex, v: Vertex) -> bool:
        """:meth:`remove_edge` for endpoints already in canonical order."""
        if self._intern is not None:
            return self.remove_edge(u, v)
        neighbours = self._adj.get(u)
        if neighbours is None or v not in neighbours:
            return False
        del neighbours[v]
        del self._adj[v][u]
        self._num_edges -= 1
        return True

    def remove_vertex(self, v: Vertex) -> List[Edge]:
        """Remove ``v`` and all incident edges; returns the removed edges.

        Returns an empty list if the vertex was absent (idempotent).
        """
        if self._intern is not None:
            vid = self._intern.id_of(v)
            if vid is None:
                return []
            label_of = self._intern.label_of
            return [
                canonical_edge(label_of(key >> 32), label_of(key & _MASK32))
                for key in self.remove_vertex_id(vid)
            ]
        neighbours = self._adj.pop(v, None)
        if neighbours is None:
            return []
        removed: List[Edge] = []
        for w in neighbours:
            del self._adj[w][v]
            removed.append(canonical_edge(v, w))
        self._num_edges -= len(removed)
        return removed

    def clear(self) -> None:
        """Remove all vertices and edges."""
        if self._intern is not None:
            self._adj = []
            self._id_count = 0
        else:
            self._adj.clear()
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Mutation (dense-id hot path; id mode only)
    # ------------------------------------------------------------------
    def add_vertex_id(self, vid: int) -> bool:
        """Id-mode :meth:`add_vertex` for an already-interned vertex."""
        adj = self._adj
        if vid >= len(adj):
            adj.extend([None] * (vid + 1 - len(adj)))
        if adj[vid] is None:
            adj[vid] = {}
            self._id_count += 1
            return True
        return False

    def add_edge_ids(self, uid: int, vid: int) -> bool:
        """Id-mode :meth:`add_edge`; endpoints in any order, no self-loops."""
        adj = self._adj
        n = len(adj)
        if uid >= n or vid >= n:
            adj.extend([None] * ((uid if uid > vid else vid) + 1 - n))
        nu = adj[uid]
        if nu is None:
            adj[uid] = {vid: None}
            self._id_count += 1
        elif vid in nu:
            return False
        else:
            nu[vid] = None
        nv = adj[vid]
        if nv is None:
            adj[vid] = {uid: None}
            self._id_count += 1
        else:
            nv[uid] = None
        self._num_edges += 1
        return True

    def remove_edge_ids(self, uid: int, vid: int) -> bool:
        """Id-mode :meth:`remove_edge`; returns False if absent."""
        adj = self._adj
        nu = adj[uid] if uid < len(adj) else None
        if nu is None or vid not in nu:
            return False
        del nu[vid]
        del adj[vid][uid]
        self._num_edges -= 1
        return True

    def remove_vertex_id(self, vid: int) -> List[int]:
        """Id-mode :meth:`remove_vertex`.

        Returns the removed incident edges as packed
        ``(min_id << 32) | max_id`` keys — the clusterer feeds these
        straight into its packed reservoir. Empty list if absent.
        """
        adj = self._adj
        neighbours = adj[vid] if vid < len(adj) else None
        if neighbours is None:
            return []
        adj[vid] = None
        self._id_count -= 1
        removed: List[int] = []
        for w in neighbours:
            del adj[w][vid]
            removed.append((vid << 32) | w if vid < w else (w << 32) | vid)
        self._num_edges -= len(removed)
        return removed

    def has_vertex_id(self, vid: int) -> bool:
        """Id-mode :meth:`has_vertex`."""
        adj = self._adj
        return vid < len(adj) and adj[vid] is not None

    def vertex_ids(self) -> Iterator[int]:
        """Iterate present vertex ids in ascending (deterministic) order."""
        return (vid for vid, ns in enumerate(self._adj) if ns is not None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_vertex(self, v: Vertex) -> bool:
        """True if ``v`` is in the graph (even with degree 0)."""
        if self._intern is not None:
            vid = self._intern.id_of(v)
            return vid is not None and self.has_vertex_id(vid)
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """True if the undirected edge ``{u, v}`` is present."""
        if u == v:
            return False
        if self._intern is not None:
            id_of = self._intern.id_of
            uid = id_of(u)
            vid = id_of(v)
            if uid is None or vid is None:
                return False
            adj = self._adj
            neighbours = adj[uid] if uid < len(adj) else None
            return neighbours is not None and vid in neighbours
        neighbours = self._adj.get(u)
        return neighbours is not None and v in neighbours

    def _neighbour_ids(self, v: Vertex) -> Dict[int, None]:
        """Id-mode neighbour dict of ``v``; KeyError for unknown vertices."""
        vid = self._intern.id_of(v)
        if vid is not None:
            adj = self._adj
            neighbours = adj[vid] if vid < len(adj) else None
            if neighbours is not None:
                return neighbours
        raise KeyError(v)

    def degree(self, v: Vertex) -> int:
        """Degree of ``v``; raises ``KeyError`` for unknown vertices."""
        if self._intern is not None:
            return len(self._neighbour_ids(v))
        return len(self._adj[v])

    def neighbors(self, v: Vertex) -> FrozenSet[Vertex]:
        """``v``'s neighbours as an immutable ``frozenset`` snapshot.

        A frozen *copy*, never a view of internal storage: callers can
        hold it across later mutations (it will not change underneath
        them) and cannot corrupt the graph by mutating the return value.
        Regression-tested in ``tests/test_adjacency.py``.
        """
        if self._intern is not None:
            label_of = self._intern.label_of
            return frozenset(label_of(w) for w in self._neighbour_ids(v))
        return frozenset(self._adj[v])

    def iter_neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """Iterate neighbours without copying (do not mutate while iterating)."""
        if self._intern is not None:
            label_of = self._intern.label_of
            return (label_of(w) for w in self._neighbour_ids(v))
        return iter(self._adj[v])

    @property
    def num_vertices(self) -> int:
        """Number of vertices currently in the graph."""
        if self._intern is not None:
            return self._id_count
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges currently in the graph."""
        return self._num_edges

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        if self._intern is not None:
            label_of = self._intern.label_of
            return (label_of(vid) for vid in self.vertex_ids())
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in canonical form, each exactly once."""
        if self._intern is not None:
            label_of = self._intern.label_of
            for uid, neighbours in enumerate(self._adj):
                if not neighbours:
                    continue
                lu = label_of(uid)
                for w in neighbours:
                    if w > uid:
                        yield canonical_edge(lu, label_of(w))
            return
        for u, neighbours in self._adj.items():
            for v in neighbours:
                edge = canonical_edge(u, v)
                if edge[0] == u:
                    yield edge

    def edge_list(self) -> List[Edge]:
        """All edges as a list (stable within a single graph state)."""
        return list(self.edges())

    def subgraph_edges(self, vertices: Set[Vertex]) -> List[Edge]:
        """Edges with *both* endpoints inside ``vertices``."""
        result: List[Edge] = []
        if self._intern is not None:
            id_of = self._intern.id_of
            label_of = self._intern.label_of
            adj = self._adj
            for v in vertices:
                vid = id_of(v)
                neighbours = (
                    adj[vid] if vid is not None and vid < len(adj) else None
                )
                if not neighbours:
                    continue
                for w in neighbours:
                    lw = label_of(w)
                    if lw in vertices:
                        edge = canonical_edge(v, lw)
                        if edge[0] == v:
                            result.append(edge)
            return result
        for v in vertices:
            neighbours = self._adj.get(v)
            if not neighbours:
                continue
            for w in neighbours:
                if w in vertices:
                    edge = canonical_edge(v, w)
                    if edge[0] == v:
                        result.append(edge)
        return result

    def connected_components(self) -> List[Set[Vertex]]:
        """Connected components via iterative BFS (used as a test oracle
        and by offline baselines; the streaming path uses
        :mod:`repro.connectivity` instead)."""
        if self._intern is not None:
            label_of = self._intern.label_of
            adj = self._adj
            seen: Set[int] = set()
            components: List[Set[Vertex]] = []
            for start in self.vertex_ids():
                if start in seen:
                    continue
                component = {start}
                frontier = [start]
                seen.add(start)
                while frontier:
                    node = frontier.pop()
                    for neighbour in adj[node]:
                        if neighbour not in seen:
                            seen.add(neighbour)
                            component.add(neighbour)
                            frontier.append(neighbour)
                components.append({label_of(vid) for vid in component})
            return components
        seen = set()
        components = []
        for start in self._adj:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            seen.add(start)
            while frontier:
                node = frontier.pop()
                for neighbour in self._adj[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        component.add(neighbour)
                        frontier.append(neighbour)
            components.append(component)
        return components

    def copy(self) -> "AdjacencyGraph":
        """Deep copy of the graph structure (shares the interner, if any)."""
        clone = AdjacencyGraph(interner=self._intern)
        if self._intern is not None:
            clone._adj = [None if ns is None else dict(ns) for ns in self._adj]
            clone._id_count = self._id_count
        else:
            clone._adj = {v: dict(ns) for v, ns in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    def get_state(self) -> dict:
        """Serializable state: vertices and edges in iteration order.

        Vertex order matters — iteration order is deterministic in both
        modes (dict insertion order / ascending id order), and a restored
        graph presents vertices in the same order, so a resumed run
        iterates exactly as an uninterrupted one. The state itself is
        always label-space, so it is mode- and format-portable.
        """
        return {"vertices": list(self.vertices()), "edges": self.edge_list()}

    @classmethod
    def from_state(cls, state: dict, *, interner=None) -> "AdjacencyGraph":
        """Reconstruct a graph from :meth:`get_state` output.

        With ``interner`` the restored graph runs in id mode; labels
        already present in the interner keep their ids.
        """
        graph = cls(interner=interner)
        for v in state["vertices"]:
            graph.add_vertex(v)
        for u, v in state["edges"]:
            graph.add_edge(u, v)
        return graph

    def __contains__(self, v: Vertex) -> bool:
        return self.has_vertex(v)

    def __repr__(self) -> str:
        return (
            f"AdjacencyGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
