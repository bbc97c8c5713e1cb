"""Connectivity structures for the sampled sub-graph.

The paper's clusters are the connected components of the reservoir
sub-graph, which changes under both edge insertions (reservoir
admissions) and deletions (reservoir evictions and stream deletions).

* :class:`ComponentLabels` — the clusterer's connectivity state: sampled
  adjacency plus incrementally maintained component ids.
* :class:`UnionFind` — static DSU (offline baselines, shard merging,
  test oracles).
* :class:`EulerTourForest` / :class:`HDTConnectivity` — Holm–de
  Lichtenberg–Thorup fully-dynamic connectivity with amortized
  O(log² n) updates; the comparator of experiment E9b.
"""

from repro.connectivity.base import DynamicConnectivity
from repro.connectivity.ett import EulerTourForest
from repro.connectivity.hdt import HDTConnectivity
from repro.connectivity.labels import ComponentLabels
from repro.connectivity.union_find import UnionFind

__all__ = [
    "ComponentLabels",
    "DynamicConnectivity",
    "EulerTourForest",
    "HDTConnectivity",
    "UnionFind",
]
