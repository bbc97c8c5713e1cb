"""Sharded (parallel) graph reservoir sampling.

The paper notes the algorithm "can be easily parallelized": edges are
hash-partitioned across workers, every worker maintains an independent
edge reservoir over its shard of the stream, and the declared clusters
are the connected components of the **union** of the sampled sub-graphs.
Workers never coordinate during stream processing — only the (cheap)
component merge at query time touches cross-shard state, so throughput
scales with the number of workers.

Two drivers are provided:

* :class:`ShardedClusterer` — in-process sharding. Routes each event to
  its shard and keeps per-shard event counts, from which the *shard
  balance* (the quantity that bounds real-machine speedup) is computed.
* :func:`cluster_stream_parallel` — a multiprocessing driver that
  partitions a finite stream, processes shards in separate processes,
  and merges the returned samples. Suitable for batch experiments; the
  in-process class is the online API.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from itertools import islice
from queue import Empty
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

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
    "ShardResult",
    "SupervisorConfig",
    "cluster_stream_parallel",
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
        deletion_policy=config.deletion_policy,
        resample_threshold=config.resample_threshold,
        seed=child_seed(config.seed, "shard", shard),
        batch_fast_path=config.batch_fast_path,
        kernel=getattr(config, "kernel", "scalar"),
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
    multiprocess drivers share this function so the three execution
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
        self.config = config
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
        for shard, clusterer in enumerate(self.shards):
            self.shard_events[shard] += 1
            if event.kind is EventKind.DELETE_VERTEX and clusterer.config.strict:
                # A vertex can be unknown to some shards; tolerate that.
                if clusterer.graph is not None and not clusterer.graph.has_vertex(
                    event.u
                ):
                    continue
            clusterer.apply(event)

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
        if getattr(self.config, "kernel", "scalar") == "numpy":
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
        ``None`` (the default) keeps the per-event reference path.
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
        sharded = cls(normalize_config(state["config"]), state["num_shards"])
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


# ----------------------------------------------------------------------
# Multiprocessing driver (supervised)
# ----------------------------------------------------------------------
@dataclass
class ShardResult:
    """What a shard worker returns: its sample and the vertices it saw.

    When a shard exhausts its retry budget under supervision, a
    *tombstone* result is recorded instead (``failed=True``, empty
    sample) so the merge can degrade gracefully rather than hang.
    """

    shard: int
    sampled_edges: List[Edge]
    vertices: List[Vertex]
    events: int
    attempts: int = 1
    failed: bool = False
    error: Optional[str] = None


@dataclass
class SupervisorConfig:
    """Fault-tolerance policy for :func:`cluster_stream_parallel`.

    Each shard attempt runs in its own worker process with a wall-clock
    ``timeout``; a worker that crashes, hangs past the timeout, or exits
    without reporting is retried with exponential backoff
    (``backoff * backoff_factor ** (attempt - 1)`` seconds) up to
    ``max_attempts`` total attempts. A shard that fails permanently is
    dropped from the merge with a warning and a tombstone
    :class:`ShardResult` — the run degrades instead of hanging.
    """

    timeout: Optional[float] = 60.0
    max_attempts: int = 3
    backoff: float = 0.05
    backoff_factor: float = 2.0
    poll_interval: float = 0.01

    def __post_init__(self) -> None:
        check_positive("max_attempts", self.max_attempts)
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")
        if self.backoff < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be >= 0 and backoff_factor >= 1.0")

    def delay_before(self, attempt: int) -> float:
        """Backoff before ``attempt`` (attempts count from 1; no delay
        before the first)."""
        if attempt <= 1:
            return 0.0
        return self.backoff * self.backoff_factor ** (attempt - 2)


def _run_shard(
    shard: int,
    config: ClustererConfig,
    num_shards: int,
    events: Sequence[AnyEvent],
    batch_size: int | None,
    fault,
    attempt: int,
) -> ShardResult:
    if fault is not None:
        fault(shard, attempt)
    clusterer = StreamingGraphClusterer(_shard_config(config, shard, num_shards))
    clusterer.process(events, batch_size=batch_size)
    return ShardResult(
        shard=shard,
        sampled_edges=clusterer.reservoir_edges(),
        vertices=list(clusterer.vertices()),
        events=len(events),
        attempts=attempt,
    )


def _process_shard(
    args: Tuple[int, ClustererConfig, int, Sequence[AnyEvent], Optional[int]],
) -> ShardResult:
    shard, config, num_shards, events, batch_size = args
    return _run_shard(shard, config, num_shards, events, batch_size, None, 1)


def _worker_entry(task, fault, attempt: int, queue) -> None:
    """Worker process body: run the shard, report the outcome.

    A hard crash (``os._exit``, OOM kill, segfault) reports nothing; the
    supervisor detects the dead process and treats it as a failed
    attempt. Soft exceptions are reported so their message survives into
    the tombstone result.
    """
    shard = task[0]
    try:
        result = _run_shard(*task, fault, attempt)
        queue.put((shard, "ok", result))
    except BaseException as error:  # noqa: BLE001 - must never escape silently
        try:
            queue.put((shard, "error", f"{type(error).__name__}: {error}"))
        finally:
            return


def _fail_shard(shard: int, bucket_len: int, attempts: int, error: str) -> ShardResult:
    if _obs._ENABLED:
        _obs.default_registry().counter("supervisor.degradations").inc()
    warnings.warn(
        f"shard {shard} failed permanently after {attempts} attempt(s) "
        f"({error}); dropping its sample from the merge",
        RuntimeWarning,
        stacklevel=3,
    )
    return ShardResult(
        shard=shard,
        sampled_edges=[],
        vertices=[],
        events=bucket_len,
        attempts=attempts,
        failed=True,
        error=error,
    )


def _run_supervised_inline(
    tasks, supervisor: SupervisorConfig, fault
) -> List[ShardResult]:
    """Sequential supervised execution (``pool_processes <= 1``).

    Crashing workers are retried with backoff exactly as in the process
    mode; hangs cannot be interrupted without a process boundary, so
    ``timeout`` is not enforced here (documented in docs/robustness.md).
    """
    results: List[ShardResult] = []
    for task in tasks:
        shard, bucket = task[0], task[3]
        last_error = "unknown"
        for attempt in range(1, supervisor.max_attempts + 1):
            if _obs._ENABLED:
                registry = _obs.default_registry()
                registry.counter("supervisor.attempts").inc()
                if attempt > 1:
                    registry.counter("supervisor.retries").inc()
            delay = supervisor.delay_before(attempt)
            if delay:
                time.sleep(delay)
            try:
                results.append(_run_shard(*task, fault, attempt))
                break
            except Exception as error:  # simulated or real worker crash
                last_error = f"{type(error).__name__}: {error}"
        else:
            results.append(
                _fail_shard(shard, len(bucket), supervisor.max_attempts, last_error)
            )
    return results


def _run_supervised_pool(
    tasks, supervisor: SupervisorConfig, fault, processes: int
) -> List[ShardResult]:
    """Run shard attempts in supervised worker processes.

    At most ``processes`` workers run concurrently. Each has a deadline;
    deadline overruns are terminated. Failed attempts (crash, timeout,
    exit-without-result) are rescheduled with backoff until the attempt
    budget is spent, at which point the shard gets a tombstone result.
    """
    ctx = _mp_context()
    queue = ctx.Queue()
    monotonic = time.monotonic

    by_shard = {task[0]: task for task in tasks}
    attempts: Dict[int, int] = {shard: 0 for shard in by_shard}
    last_error: Dict[int, str] = {}
    results: Dict[int, ShardResult] = {}
    # (ready_time, shard) — shards waiting for a free worker slot.
    waiting: List[Tuple[float, int]] = [(0.0, task[0]) for task in tasks]
    running: Dict[int, Tuple[object, float]] = {}  # shard -> (process, deadline)

    def reap(shard: int, process, error: str) -> None:
        process.join(timeout=5.0)
        last_error[shard] = error
        if attempts[shard] >= supervisor.max_attempts:
            bucket = by_shard[shard][3]
            results[shard] = _fail_shard(shard, len(bucket), attempts[shard], error)
        else:
            retry_at = monotonic() + supervisor.delay_before(attempts[shard] + 1)
            waiting.append((retry_at, shard))

    while waiting or running:
        now = monotonic()
        # Launch ready shards into free slots.
        waiting.sort()
        while waiting and waiting[0][0] <= now and len(running) < processes:
            _, shard = waiting.pop(0)
            attempts[shard] += 1
            if _obs._ENABLED:
                registry = _obs.default_registry()
                registry.counter("supervisor.attempts").inc()
                if attempts[shard] > 1:
                    registry.counter("supervisor.retries").inc()
            process = ctx.Process(
                target=_worker_entry,
                args=(by_shard[shard], fault, attempts[shard], queue),
                daemon=True,
            )
            process.start()
            deadline = (
                now + supervisor.timeout if supervisor.timeout is not None
                else float("inf")
            )
            running[shard] = (process, deadline)

        # Drain finished workers (results must be consumed before join).
        while True:
            try:
                shard, status, payload = queue.get_nowait()
            except Empty:
                break
            entry = running.pop(shard, None)
            if entry is None:
                continue  # late report from a terminated worker
            process, _ = entry
            if status == "ok":
                results[shard] = payload
                process.join(timeout=5.0)
            else:
                reap(shard, process, payload)

        # Enforce deadlines and notice silent deaths.
        now = monotonic()
        for shard in list(running):
            entry = running.get(shard)
            if entry is None:
                continue  # its late report was consumed by an earlier shard
            process, deadline = entry
            if now > deadline:
                running.pop(shard)
                process.terminate()
                if _obs._ENABLED:
                    _obs.default_registry().counter("supervisor.timeouts").inc()
                reap(shard, process, f"timeout after {supervisor.timeout}s")
            elif not process.is_alive():
                # Dead without reporting: give the queue feeder one tick
                # to deliver, then treat as a hard crash.
                time.sleep(supervisor.poll_interval)
                try:
                    late_shard, status, payload = queue.get_nowait()
                except Empty:
                    running.pop(shard)
                    if _obs._ENABLED:
                        _obs.default_registry().counter(
                            "supervisor.worker_deaths"
                        ).inc()
                    reap(
                        shard,
                        process,
                        f"worker died without result (exitcode {process.exitcode})",
                    )
                else:
                    entry = running.pop(late_shard, None)
                    if entry is None:
                        continue
                    late_process, _ = entry
                    if status == "ok":
                        results[late_shard] = payload
                        late_process.join(timeout=5.0)
                    else:
                        reap(late_shard, late_process, payload)

        if running:
            time.sleep(supervisor.poll_interval)

    queue.close()
    return [results[task[0]] for task in tasks]


def cluster_stream_parallel(
    events: Sequence[AnyEvent],
    config: ClustererConfig,
    num_shards: int,
    pool_processes: int | None = None,
    supervisor: SupervisorConfig | None = None,
    fault=None,
    batch_size: int | None = None,
) -> Tuple[Partition, List[ShardResult]]:
    """Cluster a finite stream with one supervised process per shard.

    The stream is hash-partitioned by edge, shards are processed in
    worker processes (or inline when ``pool_processes`` is 0/1 or
    ``num_shards == 1``), and the shard samples are merged into the
    final partition. Only edge events are supported here — broadcast
    vertex events need the online :class:`ShardedClusterer`. Events may
    be :class:`EdgeEvent` instances or raw ``(kind, u, v)`` tuples;
    ``batch_size`` makes each worker ingest its shard through the
    batched fast path (``None`` keeps the per-event reference path).

    Pass a :class:`SupervisorConfig` to run under supervision: per-worker
    timeouts, bounded retry with exponential backoff, and graceful
    degradation (permanently failed shards are dropped from the merge
    with a warning and a ``failed=True`` tombstone in the results).
    ``fault`` injects a deterministic :class:`~repro.util.faults.ShardFault`
    into workers, for testing; providing one implies supervision.
    """
    check_positive("num_shards", num_shards)
    buckets: List[List[AnyEvent]] = [[] for _ in range(num_shards)]
    for event in events:
        if type(event) is tuple:
            kind, u, v = event
            if kind is not EventKind.ADD_EDGE and kind is not EventKind.DELETE_EDGE:
                raise ValueError(
                    "cluster_stream_parallel supports edge events only; "
                    "use ShardedClusterer for vertex events"
                )
            edge = canonical_edge(u, v)
        elif event.is_edge_event:
            edge = event.edge
        else:
            raise ValueError(
                "cluster_stream_parallel supports edge events only; "
                "use ShardedClusterer for vertex events"
            )
        buckets[_shard_of(edge, num_shards)].append(event)

    tasks = [
        (i, config, num_shards, bucket, batch_size)
        for i, bucket in enumerate(buckets)
    ]
    if fault is not None and supervisor is None:
        supervisor = SupervisorConfig()
    inline = num_shards == 1 or (pool_processes is not None and pool_processes <= 1)
    if supervisor is None:
        if inline:
            results = [_process_shard(task) for task in tasks]
        else:
            import multiprocessing

            processes = pool_processes or min(num_shards, multiprocessing.cpu_count())
            with _mp_context().Pool(processes=processes) as pool:
                results = pool.map(_process_shard, tasks)
    elif inline:
        results = _run_supervised_inline(tasks, supervisor, fault)
    else:
        import multiprocessing

        processes = pool_processes or min(num_shards, multiprocessing.cpu_count())
        results = _run_supervised_pool(tasks, supervisor, fault, processes)

    merged = merge_shard_samples(
        config.constraint,
        (
            (result.vertices, result.sampled_edges)
            for result in results
            if not result.failed
        ),
    )
    return merged, results
