"""Weighted graph reservoir clustering (insert-only streams).

The paper's stream model is unweighted; real interaction graphs carry
edge weights (message counts, tie strength). This extension samples
edges **proportionally to weight** (Efraimidis–Spirakis weighted
reservoir), so the sampled sub-graph concentrates on strong ties and
its components track the *cohesive cores* rather than treating a
one-off interaction like a daily one.

Scope: insert-only streams (weighted reservoir sampling under deletions
has no bounded-memory uniform solution comparable to random pairing).
Re-offering an edge is supported and treated as *weight accumulation*:
the edge gets another chance to enter the sample with the new
occurrence's weight, which approximates sampling by cumulative weight
without storing per-edge totals.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Tuple

from repro.connectivity.labels import ComponentLabels
from repro.core.config import ClustererConfig
from repro.quality.partition import Partition
from repro.sampling.weighted import WeightedReservoir
from repro.streams.events import Edge, Vertex, canonical_edge
from repro.util.rng import child_seed

__all__ = ["WeightedStreamingClusterer"]


class WeightedStreamingClusterer:
    """Online clustering of a weighted insert-only edge stream.

    >>> from repro.core import ClustererConfig
    >>> clusterer = WeightedStreamingClusterer(ClustererConfig(reservoir_capacity=100))
    >>> clusterer.add_edge("a", "b", weight=5.0)
    >>> clusterer.same_cluster("a", "b")
    True
    """

    def __init__(self, config: ClustererConfig) -> None:
        self.config = config
        self._reservoir: WeightedReservoir[Edge] = WeightedReservoir(
            config.reservoir_capacity, seed=child_seed(config.seed, "wreservoir")
        )
        self._components = ComponentLabels()
        self.edges_offered = 0
        self.vetoes = 0

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> None:
        """Offer one weighted edge occurrence."""
        edge = canonical_edge(u, v)
        self.edges_offered += 1
        self._components.add_vertex(edge[0])
        self._components.add_vertex(edge[1])
        if self._components.has_edge(*edge):
            # Already sampled: a re-occurrence cannot improve the sample
            # (the edge is resident); weight still counts to the totals.
            self._reservoir.account_weight(weight)
            return
        if not self.config.constraint.allows(self._components, *edge):
            self.vetoes += 1
            return
        admitted, evicted = self._reservoir.offer_detailed(edge, weight)
        if not admitted:
            return
        if evicted is not None and self._components.has_edge(*evicted):
            self._components.delete_edge(*evicted)
        if not self._components.has_edge(*edge):
            self._components.insert_edge(*edge)

    def add_edges(
        self, weighted_edges: Iterable[Tuple[Vertex, Vertex, float]]
    ) -> "WeightedStreamingClusterer":
        """Offer a stream of (u, v, weight) triples; returns self."""
        for u, v, weight in weighted_edges:
            self.add_edge(u, v, weight)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def same_cluster(self, u: Vertex, v: Vertex) -> bool:
        """True if ``u`` and ``v`` are currently clustered together."""
        return self._components.connected(u, v)

    def cluster_members(self, v: Vertex) -> FrozenSet[Vertex]:
        """All vertices clustered with ``v``."""
        return frozenset(self._components.component_members(v))

    def snapshot(self) -> Partition:
        """The current clustering."""
        return Partition.from_clusters(self._components.components())

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return self._components.num_components

    @property
    def reservoir_size(self) -> int:
        """Sampled edge count."""
        return len(self._reservoir)

    def sampled_edges(self) -> List[Edge]:
        """The sampled edges (copy)."""
        return self._reservoir.items()

    def __repr__(self) -> str:
        return (
            f"WeightedStreamingClusterer(clusters={self.num_clusters}, "
            f"reservoir={self.reservoir_size}/{self.config.reservoir_capacity})"
        )
