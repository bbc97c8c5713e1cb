"""Offline clustering baselines, all implemented from scratch.

These are the comparators for the paper's quality and throughput
experiments. Every algorithm takes the full graph and returns a
:class:`~repro.quality.partition.Partition`; none of them is
incremental — rebuilding on change is exactly the cost the streaming
algorithm avoids.

``BASELINES`` maps short names to ready-to-call single-argument
functions (sensible default parameters) for harness sweeps; algorithms
needing a cluster count ``k`` are exposed via factories.
"""

from typing import Dict

from repro.baselines.components import connected_components
from repro.baselines.label_propagation import label_propagation
from repro.baselines.louvain import louvain
from repro.baselines.mcl import mcl
from repro.baselines.multilevel import multilevel_partition
from repro.baselines.recompute import OfflineAlgorithm, PeriodicRecomputeClusterer
from repro.baselines.spectral import spectral_clustering
from repro.graph.adjacency import AdjacencyGraph
from repro.quality.partition import Partition

__all__ = [
    "BASELINES",
    "OfflineAlgorithm",
    "PeriodicRecomputeClusterer",
    "connected_components",
    "label_propagation",
    "louvain",
    "make_multilevel",
    "make_spectral",
    "mcl",
    "multilevel_partition",
    "spectral_clustering",
]


def make_spectral(k: int, seed: int = 0) -> OfflineAlgorithm:
    """Spectral clustering with a fixed ``k`` as a one-argument algorithm."""
    return lambda graph: spectral_clustering(graph, k, seed=seed)


def make_multilevel(k: int, seed: int = 0) -> OfflineAlgorithm:
    """Multilevel partitioning with a fixed ``k`` as a one-argument algorithm."""
    return lambda graph: multilevel_partition(graph, k, seed=seed)


BASELINES: Dict[str, OfflineAlgorithm] = {
    "louvain": louvain,
    "label_propagation": label_propagation,
    "mcl": mcl,
    "components": connected_components,
}
