"""The paper's primary contribution: clustering by graph reservoir sampling.

Public entry points:

* :class:`StreamingGraphClusterer` — online clusterer over a stream of
  vertex/edge additions and deletions.
* :class:`ClustererConfig` / :class:`DeletionPolicy` — configuration.
* :mod:`repro.core.constraints` — cluster-shape admission policies.
* :class:`ShardedClusterer` / :class:`PipelineClusterer` — the
  parallelization story: shards in process, or in supervised worker
  processes (:class:`SupervisorConfig`).
* :class:`SlidingWindowClusterer` — recency-windowed deployment mode.
"""

from repro.core.clusterer import ClustererStats, StreamingGraphClusterer
from repro.core.config import ClustererConfig, DeletionPolicy
from repro.core.constraints import (
    CompositeConstraint,
    ConstraintPolicy,
    MaxClusterSize,
    MinClusterCount,
    Unconstrained,
)
from repro.core.pipeline import PipelineClusterer, SupervisorConfig
from repro.core.sharded import ShardedClusterer, merge_shard_samples
from repro.core.tracking import (
    ClusterEvent,
    ClusterEventKind,
    ClusterTracker,
    TrackingReport,
)
from repro.core.hierarchy import MultiResolutionClusterer
from repro.core.timewindow import TimeWindowClusterer
from repro.core.weighted import WeightedStreamingClusterer
from repro.core.window import SlidingWindowClusterer

__all__ = [
    "ClusterEvent",
    "ClusterEventKind",
    "ClusterTracker",
    "ClustererConfig",
    "ClustererStats",
    "CompositeConstraint",
    "ConstraintPolicy",
    "DeletionPolicy",
    "MaxClusterSize",
    "MinClusterCount",
    "MultiResolutionClusterer",
    "PipelineClusterer",
    "TrackingReport",
    "ShardedClusterer",
    "SlidingWindowClusterer",
    "SupervisorConfig",
    "TimeWindowClusterer",
    "StreamingGraphClusterer",
    "Unconstrained",
    "WeightedStreamingClusterer",
    "merge_shard_samples",
]
