"""repro — reproduction of "Clustering Streaming Graphs" (ICDCS 2012).

A. Eldawy, R. Khandekar, K.-L. Wu. DOI 10.1109/ICDCS.2012.20.

The library clusters large, fully-dynamic graphs online: a bounded
**reservoir sample of the edges** is maintained as the graph changes
(additions *and* deletions), optionally under cluster-shape constraints,
and the **connected components of the sampled sub-graph** are declared
as the clusters of the original graph.

Quickstart
----------
>>> from repro import StreamingGraphClusterer, ClustererConfig, add_edge
>>> clusterer = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=1000))
>>> clusterer.apply(add_edge("alice", "bob"))
>>> clusterer.same_cluster("alice", "bob")
True

Packages
--------
* :mod:`repro.core` — the streaming clusterer (+ sharded / windowed).
* :mod:`repro.connectivity` — component labels of the sampled sub-graph
  (+ HDT/ETT fully-dynamic connectivity, union-find).
* :mod:`repro.sampling` — reservoir samplers (random pairing, packed
  and vectorized, weighted).
* :mod:`repro.streams` — event model, generators (SBM, LFR-style,
  drift), orders, I/O.
* :mod:`repro.baselines` — offline comparators (Louvain, LPA, spectral,
  multilevel/METIS-like, MCL) built from scratch.
* :mod:`repro.quality` — modularity, conductance, NMI/ARI/F1, …
* :mod:`repro.datasets` — real fixture + synthetic stand-in registry.
* :mod:`repro.bench` — the experiment harness behind ``benchmarks/``.
"""

from repro.core import (
    ClusterEvent,
    ClusterEventKind,
    ClusterTracker,
    ClustererConfig,
    ClustererStats,
    CompositeConstraint,
    ConstraintPolicy,
    MaxClusterSize,
    MinClusterCount,
    MultiResolutionClusterer,
    PipelineClusterer,
    ShardedClusterer,
    SlidingWindowClusterer,
    StreamingGraphClusterer,
    SupervisorConfig,
    Unconstrained,
    WeightedStreamingClusterer,
)
from repro.errors import (
    CheckpointError,
    ReproError,
    StreamError,
    UnsupportedOperationError,
)
from repro.persist import PeriodicCheckpointer, load_checkpoint, save_checkpoint
from repro.quality.partition import Partition
from repro.streams.events import (
    EdgeEvent,
    EventKind,
    add_edge,
    add_vertex,
    delete_edge,
    delete_vertex,
)

__version__ = "1.0.0"

__all__ = [
    "CheckpointError",
    "ClusterEvent",
    "ClusterEventKind",
    "ClusterTracker",
    "ClustererConfig",
    "ClustererStats",
    "CompositeConstraint",
    "ConstraintPolicy",
    "EdgeEvent",
    "EventKind",
    "MaxClusterSize",
    "MinClusterCount",
    "MultiResolutionClusterer",
    "Partition",
    "PeriodicCheckpointer",
    "PipelineClusterer",
    "ReproError",
    "ShardedClusterer",
    "SlidingWindowClusterer",
    "StreamError",
    "SupervisorConfig",
    "StreamingGraphClusterer",
    "Unconstrained",
    "WeightedStreamingClusterer",
    "UnsupportedOperationError",
    "__version__",
    "add_edge",
    "add_vertex",
    "delete_edge",
    "delete_vertex",
    "load_checkpoint",
    "save_checkpoint",
]
