"""Static connected components — the degenerate clustering baseline.

:func:`connected_components` gives the components of the full graph:
what the streaming algorithm degenerates to with an unbounded
reservoir.
"""

from __future__ import annotations

from repro.connectivity.union_find import UnionFind
from repro.graph.adjacency import AdjacencyGraph
from repro.quality.partition import Partition

__all__ = ["connected_components"]


def connected_components(graph: AdjacencyGraph) -> Partition:
    """Components of the full graph as a partition."""
    union = UnionFind(graph.vertices())
    for u, v in graph.edges():
        union.union(u, v)
    return Partition.from_clusters(union.groups())

