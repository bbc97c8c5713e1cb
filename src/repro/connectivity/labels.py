"""Component labels over a sampled edge set.

The paper's clusters are the connected components of the reservoir
sample. :class:`ComponentLabels` keeps exactly that state and nothing
more:

* ``adj`` — the sampled adjacency, only for vertices with at least one
  sampled edge;
* ``comp`` / ``size`` — a component id for each such vertex and a size
  for each component id; a vertex without a sampled edge is a singleton
  and has no entry;
* ``universe`` — the registered vertices, an insertion-ordered dict, so
  the vertex list is a pure function of the registration sequence.

Linking two components relabels the smaller one (O(smaller side)).
Cutting an edge runs an exact bidirectional search from both endpoints
that always expands the smaller frontier: it stops as soon as the
frontiers meet (no split), or when one side runs out, and that side is
exactly the vertex set that takes a fresh id. The search has no budget:
giving up early could only fall back to a full rebuild, which never
costs less than finishing the search. :meth:`ComponentLabels.rebuild`
recomputes everything from the sampled edges in one pass, for a caller
whose labels fell too far behind the sample to catch up edge by edge
(the numpy batch kernel, which alone knows when they are behind).

The class implements :class:`~repro.connectivity.base.DynamicConnectivity`,
so constraint policies query it directly and it serves as the oracle
the HDT structure is cross-checked against.

>>> labels = ComponentLabels()
>>> labels.insert_edge(1, 2), labels.insert_edge(2, 3), labels.insert_edge(1, 3)
(True, True, False)
>>> labels.delete_edge(1, 2)
False
>>> labels.delete_edge(2, 3)
True
>>> sorted(labels.component_members(1)), labels.num_components
([1, 3], 2)
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.connectivity.base import DynamicConnectivity
from repro.streams.events import Vertex, canonical_edge

__all__ = ["ComponentLabels"]


class ComponentLabels(DynamicConnectivity):
    """Sampled adjacency with incrementally maintained component ids."""

    def __init__(self) -> None:
        self.adj: Dict[Vertex, Set[Vertex]] = {}
        self.comp: Dict[Vertex, int] = {}
        self.size: Dict[int, int] = {}
        self.universe: Dict[Vertex, None] = {}
        self.next_id = 0

    # ------------------------------------------------------------------
    # Unchecked core: the caller guarantees the edge is absent (link) or
    # present (cut) and its endpoints are registered.
    # ------------------------------------------------------------------
    def link(self, u: Vertex, v: Vertex) -> bool:
        """Add edge ``{u, v}``; True iff it joined two components."""
        adj = self.adj
        comp = self.comp
        size = self.size
        cu = comp.get(u)
        cv = comp.get(v)
        merged = True
        if cu is None:
            if cv is None:
                cid = self.next_id
                self.next_id = cid + 1
                comp[u] = comp[v] = cid
                size[cid] = 2
            else:
                comp[u] = cv
                size[cv] += 1
        elif cv is None:
            comp[v] = cu
            size[cu] += 1
        elif cu != cv:
            # Relabel the smaller component into the larger before the
            # new edge joins them, so the walk stays on the small side.
            if size[cu] < size[cv]:
                small, into, start = cu, cv, u
            else:
                small, into, start = cv, cu, v
            comp[start] = into
            stack = [start]
            while stack:
                for y in adj[stack.pop()]:
                    if comp[y] != into:
                        comp[y] = into
                        stack.append(y)
            size[into] += size.pop(small)
        else:
            merged = False
        neighbours = adj.get(u)
        if neighbours is None:
            adj[u] = {v}
        else:
            neighbours.add(v)
        neighbours = adj.get(v)
        if neighbours is None:
            adj[v] = {u}
        else:
            neighbours.add(u)
        return merged

    def cut(self, u: Vertex, v: Vertex) -> bool:
        """Remove edge ``{u, v}``; True iff it split a component."""
        adj = self.adj
        comp = self.comp
        size = self.size
        nu = adj[u]
        nv = adj[v]
        nu.discard(v)
        nv.discard(u)
        if not nu:
            # ``u`` lost its last sampled edge and becomes a singleton.
            del adj[u]
            cid = comp.pop(u)
            if not nv:
                del adj[v]
                del comp[v]
                del size[cid]
            else:
                size[cid] -= 1
            return True
        if not nv:
            del adj[v]
            size[comp.pop(v)] -= 1
            return True
        side = self._split_side(u, v)
        if side is None:
            return False
        size[comp[u]] -= len(side)
        cid = self.next_id
        self.next_id = cid + 1
        size[cid] = len(side)
        for x in side:
            comp[x] = cid
        return True

    def _split_side(self, u: Vertex, v: Vertex) -> Optional[Set[Vertex]]:
        """After removing edge ``{u, v}``: None if its endpoints are still
        connected, else the vertex set of the side whose search ran out.

        Both searches advance a layer at a time, always the side with
        the smaller frontier; a frontier that touches the other side's
        visited set proves the endpoints connected.
        """
        adj = self.adj
        frontier_a = adj[u]
        frontier_b = adj[v]
        if not frontier_a.isdisjoint(frontier_b):
            # A common neighbour: the edge sat on a triangle. Catches
            # most "still connected" answers on clustered graphs.
            return None
        seen_a = {u}
        seen_b = {v}
        while True:
            if len(frontier_a) > len(frontier_b):
                frontier_a, frontier_b = frontier_b, frontier_a
                seen_a, seen_b = seen_b, seen_a
            if not frontier_a.isdisjoint(seen_b):
                return None
            fresh = frontier_a - seen_a
            if not fresh:
                return seen_a
            seen_a |= fresh
            frontier_a = set().union(*map(adj.__getitem__, fresh))

    def rebuild(self, edges: Iterable[Tuple[Vertex, Vertex]]) -> None:
        """Recompute adjacency and labels from the sampled edge set in
        one pass; the vertex universe is left as it is."""
        adj = self.adj
        comp = self.comp
        size = self.size
        adj.clear()
        comp.clear()
        size.clear()
        for u, v in edges:
            neighbours = adj.get(u)
            if neighbours is None:
                adj[u] = {v}
            else:
                neighbours.add(v)
            neighbours = adj.get(v)
            if neighbours is None:
                adj[v] = {u}
            else:
                neighbours.add(u)
        cid = 0
        for start in adj:
            if start in comp:
                continue
            comp[start] = cid
            members = [start]
            for x in members:
                for y in adj[x]:
                    if y not in comp:
                        comp[y] = cid
                        members.append(y)
            size[cid] = len(members)
            cid += 1
        self.next_id = cid

    # ------------------------------------------------------------------
    # DynamicConnectivity interface
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> bool:
        if v in self.universe:
            return False
        self.universe[v] = None
        return True

    def insert_edge(self, u: Vertex, v: Vertex) -> bool:
        u, v = canonical_edge(u, v)
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u!r}, {v!r}) already present")
        self.add_vertex(u)
        self.add_vertex(v)
        return self.link(u, v)

    def delete_edge(self, u: Vertex, v: Vertex) -> bool:
        u, v = canonical_edge(u, v)
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) not present")
        return self.cut(u, v)

    def remove_vertex_if_isolated(self, v: Vertex) -> bool:
        if v not in self.universe or v in self.adj:
            return False
        del self.universe[v]
        return True

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        neighbours = self.adj.get(u)
        return neighbours is not None and v in neighbours

    def connected(self, u: Vertex, v: Vertex) -> bool:
        if u == v:
            return True
        cid = self.comp.get(u)
        return cid is not None and cid == self.comp.get(v)

    def component_size(self, v: Vertex) -> int:
        cid = self.comp.get(v)
        return 1 if cid is None else self.size[cid]

    def component_members(self, v: Vertex) -> Set[Vertex]:
        adj = self.adj
        members = {v}
        if v in adj:
            stack = [v]
            while stack:
                for y in adj[stack.pop()]:
                    if y not in members:
                        members.add(y)
                        stack.append(y)
        return members

    @property
    def num_vertices(self) -> int:
        return len(self.universe)

    @property
    def num_components(self) -> int:
        # Every labelled vertex is registered; the rest are singletons.
        return len(self.size) + len(self.universe) - len(self.comp)

    def vertices(self) -> Iterator[Vertex]:
        return iter(self.universe)
