"""Sharded (parallel) graph reservoir sampling.

The paper notes the algorithm "can be easily parallelized": edges are
hash-partitioned across workers, every worker maintains an independent
edge reservoir over its shard of the stream, and the declared clusters
are the connected components of the **union** of the sampled sub-graphs.
Workers never coordinate during stream processing — only the (cheap)
component merge at query time touches cross-shard state, so throughput
scales with the number of workers.

:class:`ShardedClusterer` shards in process: it routes each event to its
shard and keeps per-shard event counts, from which the *shard balance*
(the quantity that bounds real-machine speedup) is computed. The
routing, per-shard configuration and merge defined here are shared with
:class:`~repro.core.pipeline.PipelineClusterer`, which runs the same
shards in supervised worker processes.
"""

from __future__ import annotations

from itertools import islice
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.connectivity.union_find import UnionFind
from repro.core.clusterer import AnyEvent, StreamingGraphClusterer
from repro.obs import metrics as _obs
from repro.core.config import ClustererConfig, normalize_config
from repro.quality.partition import Partition
from repro.streams.events import (
    Edge,
    EdgeEvent,
    EventKind,
    Vertex,
    canonical_edge,
)
from repro.util.rng import child_seed
from repro.util.validation import check_positive

__all__ = [
    "ShardedClusterer",
    "merge_shard_samples",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mp_context():
    """The multiprocessing context for every worker this package spawns.

    Pinned to ``spawn`` rather than the platform default: ``fork`` (the
    Linux default) would duplicate the parent's RNG state, lazy caches,
    and open descriptors into workers, so the same program could behave
    differently on Linux and macOS/Windows (where ``spawn`` already is
    the default). A fresh interpreter per worker keeps worker behaviour
    a function of its explicit arguments alone.
    """
    import multiprocessing

    return multiprocessing.get_context("spawn")


def _stable_vertex_key(v: Vertex) -> int:
    """A process-stable 64-bit key for an arbitrary vertex id.

    Integers key as themselves. Everything else is hashed FNV-1a over
    the UTF-8 bytes of its ``repr`` — unlike builtin ``hash()``, which
    is salted by ``PYTHONHASHSEED`` for strings and would route the same
    vertex to different shards in different processes, breaking both the
    multiprocessing driver and checkpoint recovery.
    """
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    key = 0xCBF29CE484222325
    for byte in repr(v).encode("utf-8"):
        key = ((key ^ byte) * 0x100000001B3) & _MASK64
    return key


def _combine_keys(key_u: int, key_v: int, num_shards: int) -> int:
    """Mix two endpoint keys into a shard index (splitmix64 finalizer).

    Split out of :func:`_shard_of` so the pipeline producer can route
    from *cached* vertex keys without recomputing them per event; both
    callers must agree bit-for-bit for the equivalence property to hold.
    """
    x = (key_u * 0x9E3779B97F4A7C15 + key_v * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) % num_shards


def _shard_of(edge: Edge, num_shards: int) -> int:
    """Deterministic shard routing for an edge.

    Endpoint keys are combined and passed through a splitmix64-style
    finalizer: low bits must be well mixed, since structured ids (e.g.
    community = id mod k) otherwise correlate with the shard index and
    wreck the balance. Stable across processes and runs regardless of
    ``PYTHONHASHSEED`` for *all* vertex types.
    """
    u, v = edge
    return _combine_keys(
        _stable_vertex_key(u), _stable_vertex_key(v), num_shards
    )


def _shard_config(config: ClustererConfig, shard: int, num_shards: int) -> ClustererConfig:
    """Per-shard configuration: split the memory budget, derive the seed."""
    capacity = max(1, config.reservoir_capacity // num_shards)
    return ClustererConfig(
        reservoir_capacity=capacity,
        constraint=config.constraint,
        track_graph=config.track_graph,
        strict=config.strict,
        seed=child_seed(config.seed, "shard", shard),
        kernel=config.kernel,
    )


class _UnionFindConstraintView:
    """Just enough of the DynamicConnectivity interface for constraint
    policies to evaluate merge-time admissions over a union-find."""

    def __init__(self, union: UnionFind) -> None:
        self._union = union

    def connected(self, u: Vertex, v: Vertex) -> bool:
        return self._union.connected(u, v)

    def component_size(self, v: Vertex) -> int:
        return self._union.set_size(v)

    @property
    def num_components(self) -> int:
        return self._union.num_sets


def merge_shard_samples(
    constraint, parts: Iterable[Tuple[Iterable[Vertex], Iterable[Edge]]]
) -> Partition:
    """Merge shard samples into the declared global clustering.

    ``parts`` is ``(vertices, sampled_edges)`` per shard, *in shard
    order* — the declared clusters are the connected components of the
    union of the sampled sub-graphs. The admission ``constraint`` is
    re-enforced at merge time: each shard bounded only its local sample,
    and the union of innocent shard-local clusters can violate the
    global bound. All vertices are registered before any union so the
    constraint evaluates every candidate merge against the full vertex
    universe, exactly as :class:`ShardedClusterer` always did; the
    pipeline shares this function so the in-process and multiprocess
    modes cannot drift apart.
    """
    union = UnionFind()
    view = _UnionFindConstraintView(union)
    parts = list(parts)
    for vertices, _ in parts:
        for vertex in vertices:
            union.add(vertex)
    for _, edges in parts:
        for u, v in edges:
            if constraint.allows(view, u, v):
                union.union(u, v)
    return Partition.from_clusters(union.groups())


class ShardedClusterer:
    """Hash-partitioned ensemble of streaming clusterers.

    The declared clustering is the component structure of the union of
    all shards' sampled sub-graphs; it is computed lazily and cached
    until the next update.
    """

    def __init__(self, config: ClustererConfig, num_shards: int) -> None:
        check_positive("num_shards", num_shards)
        self.config = config = normalize_config(config)
        self.num_shards = num_shards
        self.shards: List[StreamingGraphClusterer] = [
            StreamingGraphClusterer(_shard_config(config, i, num_shards))
            for i in range(num_shards)
        ]
        self.shard_events: List[int] = [0] * num_shards
        self._merged: Optional[Partition] = None
        # Shard structure_version vector at the time `_merged` was
        # built; a rebuild happens only when some shard's version moved
        # (mirrors the single clusterer's extraction cache).
        self._merged_versions: Optional[List[int]] = None
        #: Probe counter: merged partitions actually (re)built (not
        #: persisted; the cache-effectiveness regression test counts it).
        self.merge_builds = 0

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def apply(self, event: EdgeEvent) -> None:
        """Route one event to its shard (vertex events go everywhere)."""
        if event.is_edge_event:
            shard = _shard_of(event.edge, self.num_shards)
            self.shard_events[shard] += 1
            self.shards[shard].apply(event)
            return
        # Vertex events are broadcast: any shard may hold incident edges,
        # and all shards must know the vertex exists for their snapshots.
        # Each shard takes the event as a one-event batch, as a pipeline
        # worker does, so its batch kernel counts it.
        batch = (event,)
        for shard, clusterer in enumerate(self.shards):
            self.shard_events[shard] += 1
            if event.kind is EventKind.DELETE_VERTEX and clusterer.config.strict:
                # A vertex can be unknown to some shards; tolerate that.
                if clusterer.graph is not None and not clusterer.graph.has_vertex(
                    event.u
                ):
                    continue
            clusterer.apply_many(batch)

    def apply_many(self, events: Iterable[AnyEvent]) -> "ShardedClusterer":
        """Apply a batch of events through the shards' batched fast path.

        Edge events (``EdgeEvent`` or raw ``(kind, u, v)`` tuples) are
        bucketed per shard — canonicalized first, since shard routing
        keys on the canonical endpoint order — and each bucket is handed
        to :meth:`StreamingGraphClusterer.apply_many` in one call.
        Because shards are fully independent, per-shard order is all
        that matters and the result is identical to routing events one
        at a time. Vertex events are barriers: buckets flush, then the
        event is broadcast exactly as in :meth:`apply`.
        """
        if self.config.kernel == "numpy":
            if type(events) is not list:
                events = list(events)
            if self._route_vectorized(events):
                if _obs._ENABLED:
                    self.sync_metrics()
                return self
        buckets: List[List[AnyEvent]] = [[] for _ in range(self.num_shards)]

        def flush() -> None:
            for shard, bucket in enumerate(buckets):
                if bucket:
                    self.shard_events[shard] += len(bucket)
                    self.shards[shard].apply_many(bucket)
                    bucket.clear()

        for event in events:
            if type(event) is tuple:
                kind, u, v = event
                if kind is EventKind.ADD_EDGE or kind is EventKind.DELETE_EDGE:
                    edge = canonical_edge(u, v)
                    buckets[_shard_of(edge, self.num_shards)].append(event)
                    continue
                barrier = EdgeEvent(kind, u, v)
            elif event.is_edge_event:
                buckets[_shard_of(event.edge, self.num_shards)].append(event)
                continue
            else:
                barrier = event
            flush()
            self.apply(barrier)
        flush()
        if _obs._ENABLED:
            self.sync_metrics()
        return self

    def _route_vectorized(self, events: List[AnyEvent]) -> bool:
        """Bucket an all-edge, all-int batch with one vectorized pass.

        Returns True when the batch was routed (possibly trivially, for
        an empty batch); False means the batch is not eligible — mixed
        kinds, non-tuple events, or non-int endpoints — and the caller
        must take the scalar routing loop instead. Shard assignment is
        ``sampling.vectorized.shard_ids`` on the canonical endpoint
        order, bit-for-bit the scalar ``_shard_of``, so both routes
        produce identical shard streams.

        A self-loop raises exactly like the scalar loop's
        ``canonical_edge`` — before anything is applied, since the
        scalar path only flushes its buckets after the full scan.
        """
        if not events:
            return True
        for event in events:
            if type(event) is not tuple:
                return False
        kinds = [event[0] for event in events]
        n_edges = kinds.count(EventKind.ADD_EDGE) + kinds.count(
            EventKind.DELETE_EDGE
        )
        if n_edges != len(kinds):
            return False  # vertex barriers: scalar loop handles ordering
        us = [event[1] for event in events]
        vs = [event[2] for event in events]
        # Exact-type gate: bools route through the repr hash and huge
        # ints overflow int64 — both fall back to the scalar loop.
        if set(map(type, us)) != {int} or set(map(type, vs)) != {int}:
            return False
        import numpy as np

        from repro.sampling.vectorized import shard_ids

        try:
            ua = np.array(us, dtype=np.int64)
            va = np.array(vs, dtype=np.int64)
        except OverflowError:
            return False
        lo = np.minimum(ua, va)
        hi = np.maximum(ua, va)
        loops = np.flatnonzero(lo == hi)
        if loops.size:
            u = us[int(loops[0])]
            raise ValueError(
                f"self-loop edges are not allowed: ({u!r}, {u!r})"
            )
        shard_events = self.shard_events
        buckets: List[List[AnyEvent]] = [[] for _ in range(self.num_shards)]
        for event, shard in zip(events, shard_ids(lo, hi, self.num_shards).tolist()):
            buckets[shard].append(event)
        for shard, bucket in enumerate(buckets):
            if bucket:
                shard_events[shard] += len(bucket)
                self.shards[shard].apply_many(bucket)
        return True

    def process(
        self, events: Iterable[AnyEvent], batch_size: int | None = None
    ) -> "ShardedClusterer":
        """Process a whole stream; returns self for chaining.

        ``batch_size`` chunks the stream through :meth:`apply_many`;
        ``None`` (the default) applies one event at a time, each shard
        taking it as a one-event batch.
        """
        if batch_size is not None:
            check_positive("batch_size", batch_size)
            iterator = iter(events)
            while True:
                chunk = list(islice(iterator, batch_size))
                if not chunk:
                    return self
                self.apply_many(chunk)
        for event in events:
            self.apply(event)
        if _obs._ENABLED:
            self.sync_metrics()
        return self

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """Complete serializable state: config, routing counters, and
        one sub-state per shard (see
        :meth:`StreamingGraphClusterer.get_state`)."""
        return {
            "config": self.config,
            "num_shards": self.num_shards,
            "shard_events": list(self.shard_events),
            "shards": [shard.get_state() for shard in self.shards],
        }

    @classmethod
    def from_state(cls, state: dict) -> "ShardedClusterer":
        """Reconstruct a sharded clusterer from :meth:`get_state` output."""
        sharded = cls(state["config"], state["num_shards"])
        shard_states = state["shards"]
        if len(shard_states) != sharded.num_shards:
            raise ValueError(
                f"checkpoint has {len(shard_states)} shard states for "
                f"num_shards={sharded.num_shards}"
            )
        sharded.shards = [
            StreamingGraphClusterer.from_state(shard_state)
            for shard_state in shard_states
        ]
        sharded.shard_events = list(state["shard_events"])
        sharded._merged = None
        sharded._merged_versions = None
        return sharded

    # ------------------------------------------------------------------
    # Merged clustering
    # ------------------------------------------------------------------
    def _merge(self) -> Partition:
        # Dirty-flag cache over the shards' structure_version counters:
        # queries between updates (or after no-op events, e.g. rejected
        # duplicates) reuse the built partition instead of re-running
        # the union-find over every sampled edge.
        versions = [shard.structure_version for shard in self.shards]
        if self._merged is not None and versions == self._merged_versions:
            return self._merged
        self._merged = merge_shard_samples(
            self.config.constraint,
            ((shard.vertices(), shard.reservoir_edges()) for shard in self.shards),
        )
        self._merged_versions = versions
        self.merge_builds += 1
        return self._merged

    def snapshot(self) -> Partition:
        """The merged clustering across all shards."""
        return self._merge()

    def same_cluster(self, u: Vertex, v: Vertex) -> bool:
        """True if ``u`` and ``v`` are in the same merged cluster."""
        merged = self._merge()
        return u in merged and v in merged and merged.same_cluster(u, v)

    def cluster_members(self, v: Vertex) -> FrozenSet[Vertex]:
        """All vertices merged-clustered with ``v``."""
        merged = self._merge()
        if v not in merged:
            return frozenset({v})
        return merged.members(merged.label_of(v))

    @property
    def num_clusters(self) -> int:
        """Number of merged clusters."""
        return self._merge().num_clusters

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def sync_metrics(self) -> None:
        """Publish per-shard event and skew gauges to the default
        metrics registry (``sharded.*`` — see docs/observability.md).

        Each shard's own ``clusterer.*`` counters are synced too, so one
        call leaves the registry fully current. Called automatically at
        ``apply_many``/``process`` boundaries when :mod:`repro.obs` is
        enabled.
        """
        registry = _obs.default_registry()
        gauge = registry.gauge
        for shard, events in enumerate(self.shard_events):
            gauge(f"sharded.shard_events.{shard}").set(events)
        total = sum(self.shard_events)
        busiest = max(self.shard_events, default=0)
        gauge("sharded.shard_balance").set(self.shard_balance)
        # Skew: busiest shard's load relative to a perfectly balanced
        # one (1.0 = even; num_shards = everything on one shard).
        skew = busiest * self.num_shards / total if total else 1.0
        gauge("sharded.shard_skew").set(skew)
        gauge("sharded.reservoir_size").set(self.total_reservoir_size)
        for clusterer in self.shards:
            clusterer.sync_metrics()

    # ------------------------------------------------------------------
    # Parallelism accounting
    # ------------------------------------------------------------------
    @property
    def shard_balance(self) -> float:
        """Total events over max per-shard events — the speedup bound.

        On a machine with ``num_shards`` cores the wall-clock of the
        stream phase is governed by the busiest shard; this ratio is the
        resulting speedup over a single worker (1.0 means no benefit,
        ``num_shards`` means perfect balance).
        """
        busiest = max(self.shard_events, default=0)
        if busiest == 0:
            return 1.0
        return sum(self.shard_events) / busiest

    @property
    def total_reservoir_size(self) -> int:
        """Sampled edges across all shards."""
        return sum(clusterer.reservoir_size for clusterer in self.shards)

    def __repr__(self) -> str:
        return (
            f"ShardedClusterer(num_shards={self.num_shards}, "
            f"reservoir={self.total_reservoir_size})"
        )
