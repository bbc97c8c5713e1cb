"""Persistent multiprocess streaming pipeline.

:class:`~repro.core.sharded.ShardedClusterer` runs every shard in one
process. This module runs the same shards in long-lived worker
processes, the multiprocess form of the paper's "easily parallelized"
claim, and it serves unbounded online streams::

    parent (producer stage)            worker processes (one per shard)
    ┌──────────────────────────┐       ┌───────────────────────────────┐
    │ parse → canonicalize →   │ pipe  │ DeltaBatchDecoder.decode →    │
    │ route (FNV-1a/splitmix64)│ ────► │ apply_many(batch) on the      │
    │ → pack delta (v2) or     │       │ per-shard                     │
    │   columnar (v3) frames   │       │ StreamingGraphClusterer       │
    │   (per-shard persistent  │       │ (interns, then runs its       │
    │    tables)               │       │  batch kernel)                │
    └──────────────────────────┘       └───────────────────────────────┘

* Workers are **long-lived** ``spawn`` processes; each owns exactly the
  ``StreamingGraphClusterer`` the matching shard of a sequential
  :class:`~repro.core.sharded.ShardedClusterer` would own (same
  ``_shard_config``, same derived seed), so the merged partition — and
  the checkpoint bytes — are identical to sequential sharded execution
  for the same seed and shard count (property-tested in
  ``tests/test_pipeline.py``).
* Event batches travel as struct-packed frames
  (:mod:`repro.streams.codec`), not pickled per-event objects; parsing,
  routing and clustering overlap instead of running in sequence. A
  worker decodes them as a served connection does, with one
  :class:`~repro.streams.codec.DeltaBatchDecoder` per pipe, and applies
  each decoded frame with one ``apply_many`` call.
* Control messages (``SNAPSHOT``/``STATE``/``METRICS``/``STOP``) share
  the data pipes. Pipes are FIFO, so a control reply doubles as a
  barrier: when it arrives, every frame sent before it has been
  applied. That keeps :meth:`PipelineClusterer.snapshot`, periodic
  checkpointing (:class:`~repro.persist.checkpoint.PeriodicCheckpointer`)
  and :meth:`PipelineClusterer.sync_metrics` available *mid-stream*.
* Workers run supervised (:class:`SupervisorConfig`): a worker that
  dies or times out is respawned (bounded attempts, exponential
  backoff) from its last checkpoint-fetched state, and the frames sent
  since are replayed from a parent-side log. A shard that exhausts its
  budget is tombstoned: its events are dropped with a warning and the
  merged partition degrades instead of the stream hanging.

Throughput/scaling numbers: ``benchmarks/bench_e5b_pipeline.py`` and
``docs/performance.md``.
"""

from __future__ import annotations

import pickle
import time
import warnings
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.core.clusterer import AnyEvent, StreamingGraphClusterer
from repro.core.config import ClustererConfig, normalize_config
from repro.core.sharded import (
    _mp_context,
    _shard_config,
    _stable_vertex_key,
    merge_shard_samples,
)
from repro.errors import CheckpointError
from repro.obs import metrics as _obs
from repro.quality.partition import Partition
from repro.streams.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    DeltaBatchDecoder,
    FrameEncoder,
)
from repro.streams.events import EventColumns, EventKind, Vertex
from repro.util.validation import check_positive

__all__ = ["PipelineClusterer", "SupervisorConfig"]

# Wire opcodes. Parent → worker messages are one opcode byte, plus a
# codec frame for batches; worker replies echo the opcode, or E+message
# for a failure, R once ready after (re)start.
_OP_BATCH = b"B"
_OP_SNAPSHOT = b"P"
_OP_STATE = b"S"
_OP_METRICS = b"M"
_OP_STOP = b"Q"
_REPLY_READY = b"R"
_REPLY_ERROR = b"E"

#: Parent-side vertex→routing-key cache bound (restarted when full).
_KEY_CACHE_LIMIT = 1 << 20


@dataclass
class SupervisorConfig:
    """Fault-tolerance policy for :class:`PipelineClusterer`.

    A worker must answer its startup handshake and every control
    request within ``timeout`` seconds (``None`` waits forever). A
    worker that crashes, hangs past the timeout, or breaks its pipe is
    respawned, after a backoff of ``backoff * backoff_factor **
    (attempt - 2)`` seconds before attempt ``attempt``, up to
    ``max_attempts`` total attempts per shard. A shard that fails
    permanently is tombstoned: its events are dropped with a warning
    and the merge degrades instead of the stream hanging.
    """

    timeout: Optional[float] = 60.0
    max_attempts: int = 3
    backoff: float = 0.05
    backoff_factor: float = 2.0

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


def _pipeline_worker(
    conn,
    shard: int,
    config: ClustererConfig,
    num_shards: int,
    attempt: int,
    fault,
    init_state: Optional[bytes],
    init_table: Optional[list],
) -> None:
    """Worker process body: one shard clusterer, one command loop.

    Frames arrive as delta frames against a connection-lifetime vertex
    table (``init_table`` primes it after a restart, matching the
    parent's encoder snapshot). Each frame decodes to one label batch
    for ``apply_many``, so the shard's stream is split exactly as the
    producer framed it, and the scalar kernel's split invariance keeps
    per-shard state identical to sequential sharded execution. Any
    exception is reported as an ``E`` reply and ends the process; the
    parent decides whether to respawn.
    """
    process_time = time.process_time
    try:
        if fault is not None:
            fault(shard, attempt)
        if init_state is not None:
            clusterer = StreamingGraphClusterer.from_state(pickle.loads(init_state))
        else:
            clusterer = StreamingGraphClusterer(
                _shard_config(config, shard, num_shards)
            )
        decoder = DeltaBatchDecoder(init_table)
        conn.send_bytes(_REPLY_READY)
        strict = clusterer.config.strict
        graph = clusterer.graph
        events_applied = 0
        busy = 0.0
        while True:
            message = conn.recv_bytes()
            op = message[:1]
            if op == _OP_BATCH:
                start = process_time()
                batch = decoder.decode(memoryview(message)[1:])
                events_applied += len(batch)
                # The producer sends a vertex event alone in its frame. A
                # strict shard skips a broadcast DELETE_VERTEX of a vertex
                # it never saw, as ShardedClusterer.apply does.
                if not (
                    strict
                    and graph is not None
                    and type(batch) is list
                    and len(batch) == 1
                    and batch[0][0] is EventKind.DELETE_VERTEX
                    and not graph.has_vertex(batch[0][1])
                ):
                    clusterer.apply_many(batch)
                busy += process_time() - start
            elif op == _OP_SNAPSHOT:
                payload = (list(clusterer.vertices()), clusterer.reservoir_edges())
                conn.send_bytes(_OP_SNAPSHOT + pickle.dumps(payload, protocol=4))
            elif op == _OP_STATE:
                state = clusterer.get_state()
                conn.send_bytes(_OP_STATE + pickle.dumps(state, protocol=4))
            elif op == _OP_METRICS:
                stats = clusterer.stats
                payload = {
                    "stats": {
                        name: getattr(stats, name)
                        for name in StreamingGraphClusterer._METRIC_STAT_FIELDS
                    },
                    "probes": {
                        name: getattr(clusterer, name)
                        for name in StreamingGraphClusterer._METRIC_PROBE_FIELDS
                    },
                    "reservoir_size": clusterer.reservoir_size,
                    "num_vertices": clusterer.num_vertices,
                    "events_applied": events_applied,
                    "busy_seconds": busy,
                    "cpu_seconds": process_time(),
                }
                conn.send_bytes(_OP_METRICS + pickle.dumps(payload, protocol=4))
            elif op == _OP_STOP:
                conn.send_bytes(_OP_STOP)
                return
            else:
                raise ValueError(f"unknown pipeline opcode {op!r}")
    except BaseException as error:  # noqa: BLE001 - must reach the parent
        try:
            detail = f"{type(error).__name__}: {error}"
            conn.send_bytes(_REPLY_ERROR + detail.encode("utf-8", "replace"))
        except Exception:
            pass  # parent gone or pipe broken; exit code says enough
    finally:
        try:
            conn.close()
        except Exception:
            pass


class PipelineClusterer:
    """Online hash-sharded clusterer over persistent worker processes.

    Drop-in parallel counterpart of
    :class:`~repro.core.sharded.ShardedClusterer`: same constructor
    shape, same ``apply``/``apply_many``/``process`` ingestion API, same
    merged-partition queries, same checkpoint format (``get_state`` is
    bit-compatible, so a pipeline checkpoint restores as a sequential
    sharded clusterer and vice versa).

    Parameters
    ----------
    config:
        Global clusterer configuration; each worker runs on the derived
        per-shard config (capacity split, child seed).
    num_workers:
        Worker process count == shard count (routing keys on it).
    batch_events:
        Producer-side buffer size per shard: a shard's buffer is framed
        and sent once it holds this many events (control messages and
        vertex-event barriers flush earlier).
    max_frame_bytes:
        Frame size ceiling for the codec (larger batches split).
    supervisor:
        Fault-tolerance policy; defaults to ``SupervisorConfig()``.
    fault:
        Deterministic :class:`~repro.util.faults.ShardFault` injected at
        worker startup, for testing — called as ``fault(shard, attempt)``
        in the worker before it builds its clusterer.

    Use as a context manager (or call :meth:`close`) so worker
    processes are reaped deterministically.
    """

    def __init__(
        self,
        config: ClustererConfig,
        num_workers: int,
        *,
        batch_events: int = 1024,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        supervisor: Optional[SupervisorConfig] = None,
        fault=None,
        start: bool = True,
    ) -> None:
        check_positive("num_workers", num_workers)
        check_positive("batch_events", batch_events)
        check_positive("max_frame_bytes", max_frame_bytes)
        self.config = normalize_config(config)
        self.num_shards = int(num_workers)
        self.batch_events = int(batch_events)
        self.max_frame_bytes = int(max_frame_bytes)
        self.supervisor = supervisor if supervisor is not None else SupervisorConfig()
        self._fault = fault
        n = self.num_shards
        self.shard_events: List[int] = [0] * n
        #: Attempts per shard (1 = first spawn).
        self.shard_attempts: List[int] = [0] * n
        #: Events dropped because their shard was degraded.
        self.dropped_events = 0
        self.worker_restarts = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self._buffers: List[List[tuple]] = [[] for _ in range(n)]
        # Columnar buffers: per-shard ``(lo, hi)`` int64 array pairs
        # awaiting a version-3 frame. Invariant: at most one of
        # ``_buffers[s]`` / ``_col_buffers[s]`` is non-empty at any
        # time (every append site flushes the other kind first), so
        # per-shard event order is unambiguous at flush time.
        self._col_buffers: List[List[tuple]] = [[] for _ in range(n)]
        self._col_counts: List[int] = [0] * n
        self._procs: List[Optional[object]] = [None] * n
        self._conns: List[Optional[object]] = [None] * n
        # Supervision state: last fetched worker state (pickled) + the
        # frames sent since; a respawn restores the state and replays
        # the log, so no event is lost on a worker death.
        self._base_state: List[Optional[bytes]] = [None] * n
        self._log: List[List[bytes]] = [[] for _ in range(n)]
        # Delta-codec state: one connection-lifetime encoder per shard,
        # plus the table snapshot taken whenever the frame log restarts
        # (a respawned worker's decoder is primed with the snapshot and
        # the replayed log rebuilds the rest, so encoder and decoder
        # tables never diverge).
        self._encoders: List[FrameEncoder] = [FrameEncoder() for _ in range(n)]
        self._base_tables: List[list] = [[] for _ in range(n)]
        self._failed: List[bool] = [False] * n
        self._fail_errors: List[Optional[str]] = [None] * n
        self._key_cache: Dict[Vertex, int] = {}
        self._merged: Optional[Partition] = None
        self._last_samples: Optional[List[tuple]] = None
        self._metrics_last: List[Dict[str, int]] = [{} for _ in range(n)]
        self._closed = False
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PipelineClusterer":
        """Spawn (and handshake) every worker not yet running."""
        if self._closed:
            raise RuntimeError("PipelineClusterer is closed")
        pending = [
            shard
            for shard in range(self.num_shards)
            if self._procs[shard] is None and not self._failed[shard]
        ]
        for shard in pending:
            self._spawn(shard)
        for shard in pending:
            error = self._await_ready(shard)
            if error is not None:
                self._revive(shard, error, was_ready=False)
        return self

    def _spawn(self, shard: int) -> None:
        self.shard_attempts[shard] += 1
        if _obs._ENABLED:
            registry = _obs.default_registry()
            registry.counter("supervisor.attempts").inc()
            if self.shard_attempts[shard] > 1:
                registry.counter("supervisor.retries").inc()
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_pipeline_worker,
            args=(
                child_conn,
                shard,
                self.config,
                self.num_shards,
                self.shard_attempts[shard],
                self._fault,
                self._base_state[shard],
                self._base_tables[shard],
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._procs[shard] = process
        self._conns[shard] = parent_conn

    def _await_ready(self, shard: int) -> Optional[str]:
        """Wait for the startup handshake; error message or None."""
        conn = self._conns[shard]
        timeout = self.supervisor.timeout
        try:
            if timeout is not None and not conn.poll(timeout):
                if _obs._ENABLED:
                    _obs.default_registry().counter("supervisor.timeouts").inc()
                return f"timeout after {timeout}s waiting for worker startup"
            reply = conn.recv_bytes()
        except (EOFError, OSError):
            process = self._procs[shard]
            exitcode = getattr(process, "exitcode", None)
            return f"worker died during startup (exitcode {exitcode})"
        if reply[:1] == _REPLY_READY:
            return None
        if reply[:1] == _REPLY_ERROR:
            return reply[1:].decode("utf-8", "replace")
        return f"protocol error: unexpected startup reply {reply[:1]!r}"

    def _dispose_worker(self, shard: int) -> None:
        conn = self._conns[shard]
        process = self._procs[shard]
        self._conns[shard] = None
        self._procs[shard] = None
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass
        if process is not None:
            try:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5.0)
            except Exception:
                pass

    def _degrade(self, shard: int, error: str) -> None:
        """Tombstone a shard: drop its events from now on, warn once."""
        self._dispose_worker(shard)
        self._failed[shard] = True
        self._fail_errors[shard] = error
        self.dropped_events += len(self._buffers[shard]) + self._col_counts[shard]
        self._buffers[shard].clear()
        self._col_buffers[shard].clear()
        self._col_counts[shard] = 0
        self._log[shard].clear()
        self._merged = None
        if _obs._ENABLED:
            _obs.default_registry().counter("supervisor.degradations").inc()
        warnings.warn(
            f"shard {shard} failed permanently after "
            f"{self.shard_attempts[shard]} attempt(s) ({error}); dropping "
            "its sample from the merge",
            RuntimeWarning,
            stacklevel=4,
        )

    def _revive(self, shard: int, error: str, *, was_ready: bool = True) -> bool:
        """Respawn a dead/hung worker and replay its frame log.

        Returns False when the attempt budget is exhausted (the shard is
        then degraded). ``was_ready`` says whether the lost worker had
        answered READY: only such a loss counts as a worker death, and
        a failed startup, first or respawned, never does.
        """
        while True:
            self._dispose_worker(shard)
            if was_ready and _obs._ENABLED:
                _obs.default_registry().counter("supervisor.worker_deaths").inc()
            if self.shard_attempts[shard] >= self.supervisor.max_attempts:
                self._degrade(shard, error)
                return False
            delay = self.supervisor.delay_before(self.shard_attempts[shard] + 1)
            if delay:
                time.sleep(delay)
            self.worker_restarts += 1
            self._spawn(shard)
            startup_error = self._await_ready(shard)
            was_ready = startup_error is None
            if not was_ready:
                error = startup_error
                continue
            try:
                conn = self._conns[shard]
                for frame in self._log[shard]:
                    conn.send_bytes(frame)
            except (OSError, ValueError) as send_error:
                error = f"{type(send_error).__name__}: {send_error}"
                continue
            return True

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _send_frame(self, shard: int, frame: bytes) -> None:
        """Log + send one framed message; a send failure triggers the
        revive path (which replays the log, including this frame)."""
        self._log[shard].append(frame)
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        conn = self._conns[shard]
        try:
            conn.send_bytes(frame)
        except (OSError, ValueError) as error:
            self._revive(shard, f"{type(error).__name__}: {error}")

    def _flush_shard(self, shard: int) -> None:
        buffer = self._buffers[shard]
        col = self._col_buffers[shard]
        if not buffer and not col:
            return
        if self._failed[shard]:
            self.dropped_events += len(buffer) + self._col_counts[shard]
            buffer.clear()
            col.clear()
            self._col_counts[shard] = 0
            return
        if buffer:
            for frame in self._encoders[shard].encode_batches(
                buffer, max_bytes=self.max_frame_bytes
            ):
                self._send_frame(shard, _OP_BATCH + frame)
            buffer.clear()
        if col:
            for frame in self._encode_col_frames(shard):
                self._send_frame(shard, _OP_BATCH + frame)
            col.clear()
            self._col_counts[shard] = 0

    def _encode_col_frames(self, shard: int):
        """Version-3 frames for a shard's columnar buffer (not cleared)."""
        import numpy as np

        col = self._col_buffers[shard]
        if len(col) == 1:
            lo, hi = col[0]
        else:
            lo = np.concatenate([pair[0] for pair in col])
            hi = np.concatenate([pair[1] for pair in col])
        return self._encoders[shard].encode_columns(
            lo, hi, max_bytes=self.max_frame_bytes
        )

    def _flush_all(self) -> None:
        for shard in range(self.num_shards):
            self._flush_shard(shard)

    def apply_many(self, events) -> "PipelineClusterer":
        """Route a batch of events into the worker pool.

        Edge events are canonicalized (shard routing keys on canonical
        endpoint order), bucketed per shard, and shipped as packed
        frames once a bucket reaches ``batch_events``. Vertex events are
        barriers broadcast to every shard, exactly as in
        :class:`ShardedClusterer`. Returns immediately after the frames
        are queued — workers apply them concurrently; any query method
        is a barrier that waits for them.

        Accepts :class:`~repro.streams.events.EventColumns` as well:
        all-int column batches are shard-routed vectorized and shipped
        as version-3 columnar frames, which each worker's decoder hands
        to its clusterer as one columnar block — the wire-path twin of
        the inline batch-kernel fast path.
        """
        if self._closed:
            raise RuntimeError("PipelineClusterer is closed")
        self._merged = None
        if type(events) is EventColumns:
            # Columnar wire-path input: route straight from the arrays
            # (bucketed per shard, shipped as version-3 frames). Falls
            # back to the tuple loop for exotic label types.
            if events.kinds is None and self._route_columns(events):
                return self
            events = events.to_events()
        if self.config.kernel == "numpy":
            if type(events) is not list:
                events = list(events)
            if self._route_vectorized(events):
                return self
        add_edge = EventKind.ADD_EDGE
        delete_edge = EventKind.DELETE_EDGE
        buffers = self._buffers
        col_counts = self._col_counts
        shard_events = self.shard_events
        key_cache = self._key_cache
        cache_get = key_cache.get
        key_of = _stable_vertex_key
        num_shards = self.num_shards
        batch_events = self.batch_events
        mask = 0xFFFFFFFFFFFFFFFF
        for event in events:
            if type(event) is tuple:
                kind, u, v = event
            else:
                kind, u, v = event.kind, event.u, event.v
                event = None
            if kind is add_edge or kind is delete_edge:
                # Inline canonical_edge: routing and workers must agree
                # on endpoint order (repr fallback for unorderable ids).
                try:
                    if v < u:
                        u, v = v, u
                        event = None
                except TypeError:
                    if repr(v) < repr(u):
                        u, v = v, u
                        event = None
                if u == v:
                    raise ValueError(f"self-loop edges are not allowed: {u!r}")
                # Routing keys: ints key as themselves (bool excluded by
                # the exact type check, as in _stable_vertex_key); other
                # types go through the bounded FNV-1a cache.
                if type(u) is int:
                    key_u = u
                else:
                    key_u = cache_get(u)
                    if key_u is None:
                        key_u = key_cache[u] = key_of(u)
                        if len(key_cache) > _KEY_CACHE_LIMIT:
                            key_cache.clear()
                if type(v) is int:
                    key_v = v
                else:
                    key_v = cache_get(v)
                    if key_v is None:
                        key_v = key_cache[v] = key_of(v)
                        if len(key_cache) > _KEY_CACHE_LIMIT:
                            key_cache.clear()
                # _combine_keys, inlined (the producer routes every event
                # through this): must stay bit-identical to the shared
                # definition in repro.core.sharded — asserted by
                # tests/test_pipeline.py::test_inlined_routing_matches.
                x = (key_u * 0x9E3779B97F4A7C15 + key_v * 0xBF58476D1CE4E5B9) & mask
                x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
                x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
                shard = (x ^ (x >> 31)) % num_shards
                shard_events[shard] += 1
                if col_counts[shard]:
                    self._flush_shard(shard)  # keep per-shard order
                buffer = buffers[shard]
                buffer.append(event if event is not None else (kind, u, v))
                if len(buffer) >= batch_events:
                    self._flush_shard(shard)
                continue
            # Vertex event: flush everything so the broadcast lands at
            # the same per-shard position as sequential execution. Each
            # shard's frame is encoded against its own delta table (the
            # vertex may be new to some shards and warm in others).
            self._flush_all()
            broadcast = [(kind, u, None)]
            for shard in range(num_shards):
                shard_events[shard] += 1
                if self._failed[shard]:
                    self.dropped_events += 1
                    continue
                frame = _OP_BATCH + self._encoders[shard].encode_batch(broadcast)
                self._send_frame(shard, frame)
        # No automatic metrics sync here: for this class it is a worker
        # round-trip barrier, so it runs at stream boundaries
        # (:meth:`process`) rather than per batch.
        return self

    def _route_vectorized(self, events: List[AnyEvent]) -> bool:
        """Producer routing for an all-edge, all-int tuple batch.

        Computes every event's shard in one ``shard_ids`` call (ints key
        as themselves, so the splitmix64 finalizer applies directly —
        bit-identical to the inlined scalar routing) and keeps only the
        cheap buffer-append/flush loop in Python. Returns False when the
        batch needs the scalar loop: non-tuple events, vertex barriers,
        or endpoints that are not plain int64-range ints.

        Self-loop semantics match the scalar loop: every event before
        the loop is routed (buffered, flushing at ``batch_events`` as
        usual), then the same ``ValueError`` is raised.
        """
        if not events:
            return True
        for event in events:
            if type(event) is not tuple:
                return False
        kinds = [event[0] for event in events]
        n_adds = kinds.count(EventKind.ADD_EDGE)
        n_edges = n_adds + kinds.count(EventKind.DELETE_EDGE)
        if n_edges != len(kinds):
            return False
        us = [event[1] for event in events]
        vs = [event[2] for event in events]
        # Exact-type gate: bools key via the repr hash, huge ints
        # overflow int64 — both take the scalar loop instead.
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
        limit = int(loops[0]) if loops.size else len(events)
        if n_adds == len(kinds):
            # All-ADD batch: bucket columnar and ship version-3 frames
            # — no per-event Python from here to the worker kernel.
            self._bucket_columns(lo[:limit], hi[:limit])
            if loops.size:
                u = us[limit]
                raise ValueError(f"self-loop edges are not allowed: {u!r}")
            return True
        shards = shard_ids(lo[:limit], hi[:limit], self.num_shards).tolist()
        lo_list = lo.tolist()
        hi_list = hi.tolist()
        buffers = self._buffers
        col_counts = self._col_counts
        shard_events = self.shard_events
        batch_events = self.batch_events
        for i, shard in enumerate(shards):
            shard_events[shard] += 1
            if col_counts[shard]:
                self._flush_shard(shard)  # keep per-shard order
            buffer = buffers[shard]
            if vs[i] < us[i]:
                buffer.append((kinds[i], lo_list[i], hi_list[i]))
            else:
                buffer.append(events[i])
            if len(buffer) >= batch_events:
                self._flush_shard(shard)
        if loops.size:
            u = us[limit]
            raise ValueError(f"self-loop edges are not allowed: {u!r}")
        return True

    def _route_columns(self, columns: EventColumns) -> bool:
        """Route an all-ADD columnar batch without leaving numpy.

        Returns False when the columns cannot take the vectorized path
        (labels that are not plain int64-range ints); the caller then
        falls back to the tuple loop. Self-loop semantics match the
        scalar loop: everything before the first loop is routed, then
        the canonical ``ValueError`` is raised.
        """
        us, vs = columns.us, columns.vs
        if not len(us):
            return True
        import numpy as np

        if type(us) is list:
            # Exact-type gate, as in _route_vectorized: bools key via
            # the repr hash, huge ints overflow int64.
            if set(map(type, us)) != {int} or set(map(type, vs)) != {int}:
                return False
            try:
                ua = np.array(us, dtype=np.int64)
                va = np.array(vs, dtype=np.int64)
            except OverflowError:
                return False
        else:
            ua = np.asarray(us)
            va = np.asarray(vs)
            if ua.dtype.kind != "i" or va.dtype.kind != "i":
                return False
            ua = ua.astype(np.int64, copy=False)
            va = va.astype(np.int64, copy=False)
        lo = np.minimum(ua, va)
        hi = np.maximum(ua, va)
        loops = np.flatnonzero(lo == hi)
        limit = int(loops[0]) if loops.size else len(us)
        self._bucket_columns(lo[:limit], hi[:limit])
        if loops.size:
            u = us[limit]
            if type(u) is not int:
                u = int(u)
            raise ValueError(f"self-loop edges are not allowed: {u!r}")
        return True

    def _bucket_columns(self, lo, hi) -> None:
        """Bucket canonicalized endpoint arrays into per-shard columnar
        buffers (stable within-shard order), flushing at
        ``batch_events`` as the scalar loop would."""
        if not len(lo):
            return
        import numpy as np

        from repro.sampling.vectorized import shard_ids

        num_shards = self.num_shards
        col_buffers = self._col_buffers
        col_counts = self._col_counts
        shard_events = self.shard_events
        batch_events = self.batch_events
        if num_shards == 1:
            spans = [(0, lo, hi)]
        else:
            shards = shard_ids(lo, hi, num_shards)
            order = np.argsort(shards, kind="stable")
            lo = lo[order]
            hi = hi[order]
            counts = np.bincount(shards, minlength=num_shards)
            spans = []
            start = 0
            for shard in range(num_shards):
                count = int(counts[shard])
                if count:
                    stop = start + count
                    spans.append((shard, lo[start:stop], hi[start:stop]))
                    start = stop
        for shard, shard_lo, shard_hi in spans:
            count = len(shard_lo)
            shard_events[shard] += count
            if self._failed[shard]:
                self.dropped_events += count
                continue
            if self._buffers[shard]:
                self._flush_shard(shard)  # keep per-shard order
            col_buffers[shard].append((shard_lo, shard_hi))
            col_counts[shard] += count
            if col_counts[shard] >= batch_events:
                self._flush_shard(shard)

    def apply(self, event: AnyEvent) -> None:
        """Route one event (buffered; see :meth:`apply_many`)."""
        self.apply_many((event,))

    def process(
        self, events: Iterable[AnyEvent], batch_size: int | None = None
    ) -> "PipelineClusterer":
        """Consume a whole stream; returns self for chaining.

        ``batch_size`` overrides the producer buffer size for this call
        (``None`` keeps the constructor's ``batch_events``). Frames are
        how events reach the workers, but with the default scalar
        kernel frame boundaries cannot change the result: per-shard
        event order is preserved, and the PR-2 split-invariance property
        makes ``apply_many`` insensitive to how a shard's stream is
        chunked. The numpy kernel draws its RNG in per-batch blocks, so
        its (distribution-equivalent) sample is a deterministic function
        of the frame boundaries as well — replay after a worker death
        reproduces the same frames and hence the same result, but
        changing ``batch_events`` changes which equally-valid sample is
        drawn.
        """
        if batch_size is not None:
            check_positive("batch_size", batch_size)
            previous = self.batch_events
            self.batch_events = batch_size
            try:
                self.apply_many(events)
            finally:
                self.batch_events = previous
        else:
            self.apply_many(events)
        if _obs._ENABLED:
            self.sync_metrics()
        return self

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _request(self, shard: int, op: bytes) -> Optional[bytes]:
        """Send one control message and await its reply (a barrier).

        Handles worker death/timeout with the revive path; returns the
        reply payload, or None once the shard is degraded.
        """
        while not self._failed[shard]:
            conn = self._conns[shard]
            error: Optional[str] = None
            try:
                conn.send_bytes(op)
                timeout = self.supervisor.timeout
                if timeout is not None and not conn.poll(timeout):
                    if _obs._ENABLED:
                        _obs.default_registry().counter("supervisor.timeouts").inc()
                    error = f"timeout after {timeout}s awaiting {op!r} reply"
                else:
                    reply = conn.recv_bytes()
                    if reply[:1] == op:
                        return reply[1:]
                    if reply[:1] == _REPLY_ERROR:
                        error = reply[1:].decode("utf-8", "replace")
                    else:
                        error = (
                            f"protocol error: unexpected reply {reply[:1]!r} "
                            f"to {op!r}"
                        )
            except (EOFError, OSError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            self._revive(shard, error)
        return None

    # ------------------------------------------------------------------
    # Merged clustering (barriers)
    # ------------------------------------------------------------------
    def snapshot(self) -> Partition:
        """The merged clustering across all live shards (a barrier)."""
        if self._merged is not None:
            return self._merged
        self._flush_all()
        samples: List[tuple] = []
        for shard in range(self.num_shards):
            payload = self._request(shard, _OP_SNAPSHOT)
            if payload is not None:
                samples.append(pickle.loads(payload))
        self._last_samples = samples
        self._merged = merge_shard_samples(self.config.constraint, samples)
        return self._merged

    def same_cluster(self, u: Vertex, v: Vertex) -> bool:
        """True if ``u`` and ``v`` are in the same merged cluster."""
        merged = self.snapshot()
        return u in merged and v in merged and merged.same_cluster(u, v)

    def cluster_members(self, v: Vertex) -> FrozenSet[Vertex]:
        """All vertices merged-clustered with ``v``."""
        merged = self.snapshot()
        if v not in merged:
            return frozenset({v})
        return merged.members(merged.label_of(v))

    @property
    def num_clusters(self) -> int:
        """Number of merged clusters (a barrier)."""
        return self.snapshot().num_clusters

    @property
    def approx_num_clusters(self) -> Optional[int]:
        """Cluster count if a current merge is cached, else None.

        Cheap (no worker round-trip): progress reporting reads this so
        a report line never stalls the producer behind a full barrier.
        """
        merged = self._merged
        return merged.num_clusters if merged is not None else None

    @property
    def total_reservoir_size(self) -> int:
        """Sampled edges across all shards (a barrier)."""
        self.snapshot()
        return sum(len(edges) for _, edges in self._last_samples or [])

    @property
    def shard_balance(self) -> float:
        """Total events over max per-shard events — the speedup bound
        (see :attr:`ShardedClusterer.shard_balance`)."""
        busiest = max(self.shard_events, default=0)
        if busiest == 0:
            return 1.0
        return sum(self.shard_events) / busiest

    def progress_snapshot(self) -> dict:
        """Cheap, barrier-free fields for :class:`ProgressReporter`."""
        fields: dict = {}
        clusters = self.approx_num_clusters
        if clusters is not None:
            fields["clusters"] = clusters
        return fields

    # ------------------------------------------------------------------
    # Persistence (barrier)
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """Complete state in :class:`ShardedClusterer`'s exact format.

        Fetches every worker's state (a barrier), substituting each
        shard's ``config`` with a parent-side ``_shard_config`` — the
        same shared-constraint object graph sequential execution builds,
        so the canonicalized checkpoint is byte-identical to one written
        by a sequential ``ShardedClusterer``. Degraded pipelines cannot
        checkpoint: a tombstoned shard's state is gone, and silently
        writing a partial checkpoint would masquerade as the real one.
        """
        states: List[dict] = []
        self._flush_all()
        for shard in range(self.num_shards):
            if self._failed[shard]:
                raise CheckpointError(
                    f"cannot checkpoint: shard {shard} was degraded after "
                    f"{self.shard_attempts[shard]} attempt(s) "
                    f"({self._fail_errors[shard]})"
                )
            payload = self._request(shard, _OP_STATE)
            if payload is None:
                raise CheckpointError(
                    f"cannot checkpoint: shard {shard} was degraded while "
                    f"fetching its state ({self._fail_errors[shard]})"
                )
            # The fetched state doubles as the shard's recovery base:
            # the frame log restarts here, bounding replay-on-death. The
            # encoder table is snapshot alongside — a respawn primes the
            # fresh decoder with it before the (now empty) log replays.
            self._base_state[shard] = payload
            self._log[shard].clear()
            self._base_tables[shard] = self._encoders[shard].table()
            state = pickle.loads(payload)
            state["config"] = _shard_config(self.config, shard, self.num_shards)
            states.append(state)
        return {
            "config": self.config,
            "num_shards": self.num_shards,
            "shard_events": list(self.shard_events),
            "shards": states,
        }

    @classmethod
    def from_state(cls, state: dict, **kwargs) -> "PipelineClusterer":
        """Reconstruct a running pipeline from :meth:`get_state` output
        (or from a sequential :class:`ShardedClusterer` checkpoint —
        the formats are identical). ``kwargs`` forward to the
        constructor (``batch_events``, ``supervisor``, ...).
        """
        kwargs.pop("start", None)
        pipeline = cls(state["config"], state["num_shards"], start=False, **kwargs)
        shard_states = state["shards"]
        if len(shard_states) != pipeline.num_shards:
            raise ValueError(
                f"checkpoint has {len(shard_states)} shard states for "
                f"num_shards={pipeline.num_shards}"
            )
        pipeline.shard_events = list(state["shard_events"])
        pipeline._base_state = [
            pickle.dumps(shard_state, protocol=4) for shard_state in shard_states
        ]
        pipeline.start()
        return pipeline

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def worker_metrics(self) -> List[Optional[dict]]:
        """Per-shard worker metrics (a barrier; None for degraded shards).

        Each live entry carries the worker's stat counters, probe
        counters, reservoir size, events applied, and CPU accounting
        (``busy_seconds`` inside batch application, ``cpu_seconds``
        process total) — the E5b scaling bench builds its per-stage
        busy-time model from these.
        """
        self._flush_all()
        payloads: List[Optional[dict]] = []
        for shard in range(self.num_shards):
            payload = self._request(shard, _OP_METRICS)
            payloads.append(None if payload is None else pickle.loads(payload))
        return payloads

    def sync_metrics(self) -> None:
        """Publish pipeline + per-worker metrics to the default registry.

        ``clusterer.*`` counters aggregate worker deltas exactly as the
        sequential shards do; ``sharded.*`` gauges (events, balance,
        skew, reservoir) keep their meaning; ``pipeline.*`` gauges add
        the transport view (frames/bytes sent, restarts, drops). This
        is a barrier — call at stream boundaries, not per batch.
        """
        registry = _obs.default_registry()
        gauge = registry.gauge
        counter = registry.counter
        for shard, events in enumerate(self.shard_events):
            gauge(f"sharded.shard_events.{shard}").set(events)
        total = sum(self.shard_events)
        busiest = max(self.shard_events, default=0)
        gauge("sharded.shard_balance").set(self.shard_balance)
        skew = busiest * self.num_shards / total if total else 1.0
        gauge("sharded.shard_skew").set(skew)
        reservoir_total = 0
        vertices_total = 0
        for shard, payload in enumerate(self.worker_metrics()):
            if payload is None:
                continue
            last = self._metrics_last[shard]
            for group in ("stats", "probes"):
                for name, value in payload[group].items():
                    previous = last.get(name, 0)
                    if value > previous:
                        counter("clusterer." + name).inc(value - previous)
                        last[name] = value
            reservoir_total += payload["reservoir_size"]
            vertices_total += payload["num_vertices"]
        gauge("sharded.reservoir_size").set(reservoir_total)
        gauge("clusterer.reservoir_size").set(reservoir_total)
        gauge("clusterer.reservoir_fill").set(
            reservoir_total / self.config.reservoir_capacity
        )
        gauge("clusterer.num_vertices").set(vertices_total)
        gauge("pipeline.frames_sent").set(self.frames_sent)
        gauge("pipeline.bytes_sent").set(self.bytes_sent)
        gauge("pipeline.worker_restarts").set(self.worker_restarts)
        gauge("pipeline.dropped_events").set(self.dropped_events)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, *, timeout: float = 5.0) -> None:
        """Stop and reap all workers (idempotent).

        Pending buffered events are flushed first so late queries on a
        *different* handle (e.g. a checkpoint written just before) are
        never silently short; after close the pipeline refuses further
        ingestion. Buffered events that cannot be flushed — the shard
        is degraded, or its worker died and the pipe write fails — are
        *lost*, and honestly so: they are counted into
        :attr:`dropped_events` and draw the standard degradation
        warning, so a checkpoint written just before a failed close is
        never silently short either.
        """
        if self._closed:
            return
        self._closed = True
        for shard in range(self.num_shards):
            conn = self._conns[shard]
            buffer = self._buffers[shard]
            col = self._col_buffers[shard]
            if conn is None or self._failed[shard]:
                # A tombstoned shard drops its events by contract, but
                # the count must not vanish with them: events buffered
                # since the last flush were never accounted.
                if buffer or col:
                    self.dropped_events += len(buffer) + self._col_counts[shard]
                    buffer.clear()
                    col.clear()
                    self._col_counts[shard] = 0
                continue
            try:
                for frame in self._encoders[shard].encode_batches(
                    buffer, max_bytes=self.max_frame_bytes
                ):
                    conn.send_bytes(_OP_BATCH + frame)
                buffer.clear()
                if col:
                    for frame in self._encode_col_frames(shard):
                        conn.send_bytes(_OP_BATCH + frame)
                    col.clear()
                    self._col_counts[shard] = 0
                conn.send_bytes(_OP_STOP)
            except (OSError, ValueError) as error:
                if buffer or col:
                    lost = len(buffer) + self._col_counts[shard]
                    self.dropped_events += lost
                    buffer.clear()
                    col.clear()
                    self._col_counts[shard] = 0
                    warnings.warn(
                        f"shard {shard} failed while flushing {lost} "
                        f"buffered event(s) at close "
                        f"({type(error).__name__}: {error}); they are "
                        "dropped from the final state",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                continue
        deadline = time.monotonic() + timeout
        for shard in range(self.num_shards):
            conn = self._conns[shard]
            if conn is not None:
                try:
                    remaining = max(0.0, deadline - time.monotonic())
                    if conn.poll(remaining):
                        conn.recv_bytes()  # the STOP ack
                except (EOFError, OSError):
                    pass
            self._dispose_worker(shard)

    def __enter__(self) -> "PipelineClusterer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "running"
        return (
            f"PipelineClusterer(num_workers={self.num_shards}, "
            f"batch_events={self.batch_events}, {state})"
        )
