"""Per-tenant clusterer sessions for the streaming service.

A :class:`TenantSession` owns one clusterer (a
:class:`~repro.core.clusterer.StreamingGraphClusterer`, or a
:class:`~repro.core.pipeline.PipelineClusterer` when the service runs
with worker processes), a bounded FIFO ingest queue, and one drain
thread that applies event batches and answers queries **in arrival
order**. That ordering is the whole consistency story:

* any number of connections may feed the same tenant — their batches
  interleave at enqueue time and are applied serially, so the session
  is always in a state some serial event order produced;
* a query enqueued behind a batch is answered only after that batch is
  applied, giving the same FIFO-barrier semantics the pipeline's
  control channel provides over pipes.

Thread model: the server's event loop reads sockets, decodes frames,
enqueues items and writes replies; the tenant's drain thread
(``drain:<tenant>``) takes items off the queue, applies batches back to
back, computes query replies, and on shutdown writes the final
checkpoint and reaps pipeline workers. After construction only that
thread touches the clusterer. Replies and freed queue slots travel back
to the loop through ``call_soon_threadsafe``. No executor is shared
between tenants, so a tenant whose applies block holds only its own
thread; all drain threads still share one interpreter lock.

The queue is **bounded** (``queue_depth`` items): when a tenant's
producers outrun its drain thread, ``enqueue_events`` suspends, the
server stops reading that connection's socket, and the kernel's TCP
flow control pushes back on the producer. Other tenants have their own
queues and drain threads and are unaffected — a slow or stalled tenant
can never wedge the daemon.

Durability rides on :mod:`repro.persist`: a session with a checkpoint
path wraps its clusterer in a
:class:`~repro.persist.PeriodicCheckpointer` (periodic saves at exact
event positions, atomic rename) and writes a final checkpoint at
graceful shutdown, so ``repro cluster --resume`` can pick the stream up
exactly where the service left it.

Per-tenant SLO instruments are registered in the default obs registry
under ``serve.tenant.<id>.*`` (see ``docs/service.md`` for the
catalog); :meth:`TenantSession.metrics` renders the operator view —
events/s, p99 ingest latency, queue lag, drops — as a JSON-able dict.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import queue
import threading
import time
import warnings
from typing import Optional

from repro.core.clusterer import StreamingGraphClusterer
from repro.core.config import ClustererConfig
from repro.core.pipeline import PipelineClusterer
from repro.core.sharded import ShardedClusterer
from repro.errors import CheckpointError, ServiceError
from repro.obs import metrics as _obs
from repro.persist import PeriodicCheckpointer, load_checkpoint
from repro.streams.events import concat_event_batches
from repro.util.validation import check_positive

__all__ = ["TenantSession"]

#: Queue item tags. Events and queries share one FIFO queue, which is
#: what makes every query a barrier over previously accepted events.
_EVENTS = 0
_QUERY = 1
_STOP = 2


class TenantSession:
    """One tenant's clusterer, ingest queue, drain thread, and metrics.

    Construct, then ``await start()`` from the server's event loop; it
    starts the drain thread, which from then on is the only thread that
    touches :attr:`clusterer`. ``enqueue_events`` and ``query`` are the
    only entry points connections use (coroutines on the loop);
    ``close`` drains the queue, has the drain thread write the final
    checkpoint and reap pipeline workers, and waits for it to exit.
    """

    def __init__(
        self,
        tenant_id: str,
        config: ClustererConfig,
        *,
        queue_depth: int = 64,
        workers: int = 0,
        batch_size: int = 1024,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 0,
        resume: bool = False,
        ingest_delay: float = 0.0,
        kernel: Optional[str] = None,
    ) -> None:
        check_positive("queue_depth", queue_depth)  # 0 slots: puts never return
        self.tenant_id = tenant_id
        if kernel is not None and kernel != config.kernel:
            # A client's HELLO may pin the batch kernel for its tenant;
            # the derived config flows into the clusterer and therefore
            # into the tenant's checkpoint, so the resume-mismatch guard
            # below covers the kernel exactly like the CLI's does.
            config = dataclasses.replace(config, kernel=kernel)
        self.config = config
        self.workers = int(workers)
        self.batch_size = int(batch_size)
        self.checkpoint_path = checkpoint_path
        # Testing aid: the drain thread sleeps this long before each
        # apply, modelling a slow clusterer.
        self._ingest_delay = ingest_delay
        self._closing = False
        # Items go in on the loop and come out on the drain thread; the
        # semaphore bounds them (one slot per item) and lives on the loop.
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._slots = asyncio.Semaphore(queue_depth)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stopped: Optional[asyncio.Future] = None
        # Queue lag is put - drained; each counter has one writer
        # thread (the loop and the drain thread respectively).
        self._events_put = 0
        self._events_drained = 0
        self.events_applied = 0
        self.batches_applied = 0
        self.batches_coalesced = 0
        self.drops = 0
        self.apply_errors = 0
        self._started = time.monotonic()
        self._checkpointer: Optional[PeriodicCheckpointer] = None
        self.resumed_position = 0

        if resume and checkpoint_path and os.path.exists(checkpoint_path):
            restored = load_checkpoint(checkpoint_path)
            clusterer = restored.clusterer
            self.resumed_position = restored.position
            if self.workers:
                if not isinstance(clusterer, ShardedClusterer):
                    raise CheckpointError(
                        f"{checkpoint_path} holds a "
                        f"{type(clusterer).__name__} checkpoint; a "
                        "worker-backed tenant resumes sharded checkpoints "
                        "only"
                    )
                if clusterer.num_shards != self.workers:
                    raise CheckpointError(
                        f"{checkpoint_path}: checkpoint has "
                        f"{clusterer.num_shards} shards, service runs "
                        f"{self.workers} workers per tenant"
                    )
                clusterer = PipelineClusterer.from_state(
                    clusterer.get_state(), batch_events=batch_size
                )
            elif not isinstance(clusterer, StreamingGraphClusterer):
                raise CheckpointError(
                    f"{checkpoint_path} holds a {type(clusterer).__name__} "
                    "checkpoint; this service runs single-clusterer tenants "
                    "(restart with --workers)"
                )
            self._check_resume_config(clusterer.config, config, checkpoint_path)
            self.clusterer = clusterer
            self._checkpointer = PeriodicCheckpointer(
                clusterer,
                checkpoint_path,
                every=checkpoint_every,
                position=restored.position,
                save_initial=False,
            )
        else:
            if self.workers:
                self.clusterer = PipelineClusterer(
                    config, self.workers, batch_events=batch_size
                )
            else:
                self.clusterer = StreamingGraphClusterer(config)
            if checkpoint_path:
                self._checkpointer = PeriodicCheckpointer(
                    self.clusterer, checkpoint_path, every=checkpoint_every
                )

        # SLO instruments live in the process registry so --metrics-out
        # snapshots carry every tenant; METRICS replies read the same
        # objects, so the two views can never disagree.
        registry = _obs.default_registry()
        prefix = f"serve.tenant.{tenant_id}."
        self._events_counter = registry.counter(prefix + "events")
        self._drops_counter = registry.counter(prefix + "drops")
        self._coalesced_counter = registry.counter(prefix + "coalesced_batches")
        self._lag_gauge = registry.gauge(prefix + "queue_lag_events")
        self._ingest_hist = registry.histogram(prefix + "ingest_seconds")

    @staticmethod
    def _check_resume_config(
        restored: ClustererConfig, requested: ClustererConfig, path: str
    ) -> None:
        """Refuse to resume a checkpoint under a conflicting service
        config — the same policy (and field list) as the CLI's
        ``--resume`` guard."""
        from repro.cli import _resume_config_mismatches

        mismatches = _resume_config_mismatches(restored, requested)
        if mismatches:
            raise CheckpointError(
                f"{path}: cannot resume tenant checkpoint under a "
                "conflicting service configuration: " + "; ".join(mismatches)
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "TenantSession":
        """Start the drain thread (idempotent)."""
        if self._thread is None:
            self._loop = asyncio.get_running_loop()
            self._stopped = self._loop.create_future()
            self._thread = threading.Thread(
                target=self._run, name=f"drain:{self.tenant_id}", daemon=True
            )
            self._thread.start()
        return self

    async def close(self, *, checkpoint: bool = True) -> None:
        """Drain everything already accepted, then stop (idempotent).

        The stop sentinel queues *behind* all accepted items, so every
        event and query admitted before the shutdown began is applied
        or answered. With ``checkpoint`` the drain thread then writes a
        final state save, so the checkpoint on disk reflects exactly
        the drained stream. A session never started gets its thread
        here, so that save stays off the loop too.
        """
        if self._closing:
            return
        self._closing = True
        await self.start()
        await self._put((_STOP, checkpoint))
        await self._stopped
        self._thread.join()
        # The loop and the drain thread both write the lag gauge, and
        # their writes can land out of order; both are done now.
        self._lag_gauge.set(self.pending_events)

    # ------------------------------------------------------------------
    # Ingest + queries (called from connection handlers)
    # ------------------------------------------------------------------
    async def enqueue_events(self, events) -> None:
        """Queue one decoded batch (raw-tuple list or ``EventColumns``);
        suspends when the queue is full.

        The suspension is the backpressure mechanism: the caller is a
        connection's read loop, so a full queue stops socket reads and
        TCP flow control reaches the producer.
        """
        if self._closing:
            raise ServiceError(
                f"tenant {self.tenant_id!r} is shutting down; events refused"
            )
        if not events:
            return
        await self._put((_EVENTS, events, time.monotonic()), len(events))
        self._lag_gauge.set(self.pending_events)

    async def query(self, op: bytes, payload: bytes) -> bytes:
        """Enqueue a barrier query; resolves with the reply payload."""
        future = asyncio.get_running_loop().create_future()
        await self._put((_QUERY, op, payload, future))
        return await future

    async def _put(self, item: tuple, events: int = 0) -> None:
        await self._slots.acquire()
        # Counted only once the batch has its slot: a reader cancelled
        # while waiting for one leaves no lag behind.
        self._events_put += events
        self._queue.put(item)

    @property
    def pending_events(self) -> int:
        """Events queued but not yet applied (queue lag)."""
        return self._events_put - self._events_drained

    # ------------------------------------------------------------------
    # Drain thread
    # ------------------------------------------------------------------
    def _apply(self, events) -> None:
        """Apply one batch (drain thread)."""
        if self._checkpointer is not None:
            self._checkpointer.apply_many(events)
        else:
            self.clusterer.apply_many(events)

    def _take(self, block: bool = True):
        """Take the next item and hand its slot back to the loop."""
        item = self._queue.get(block)
        self._loop.call_soon_threadsafe(self._slots.release)
        return item

    def _reply(self, future: asyncio.Future, result, error=None) -> None:
        """Resolve a loop future from the drain thread."""
        self._loop.call_soon_threadsafe(_settle, future, result, error)

    def _coalesce(self, events, enqueued_at: float):
        """Merge adjacent queued event batches up to ``batch_size``.

        Small client frames would otherwise each pay a full
        ``apply_many`` (and, under ``--kernel numpy``, run the kernel on
        tiny arrays). Only *already queued* ``_EVENTS`` items merge —
        the drain never waits — and a query or stop sentinel ends the
        merge, preserving FIFO barrier semantics. The cap is strict: a
        batch that would push past ``batch_size`` is carried to the next
        drain iteration instead, so a client sending ``batch_size``-
        sized frames gets exactly its own frame boundaries (that is what
        keeps served numpy partitions deterministic and equal to inline
        runs at the same boundaries).
        """
        limit = self.batch_size
        total = len(events)
        merged = None
        carry = None
        extra = 0
        while total < limit:
            try:
                nxt = self._take(block=False)
            except queue.Empty:
                break
            if nxt[0] != _EVENTS or total + len(nxt[1]) > limit:
                carry = nxt
                break
            if merged is None:
                merged = [events]
            merged.append(nxt[1])
            total += len(nxt[1])
            extra += 1
        if merged is not None:
            events = concat_event_batches(merged)
            self.batches_coalesced += extra
            self._coalesced_counter.inc(extra)
        return events, enqueued_at, carry

    def _run(self) -> None:
        """The drain thread: its exit (or failure) resolves ``close``."""
        error = None
        try:
            self._drain()
        except Exception as exc:  # noqa: BLE001 - close() raises it
            error = exc
        self._reply(self._stopped, None, error)

    def _drain(self) -> None:
        carried = None
        while True:
            if carried is not None:
                item, carried = carried, None
            else:
                item = self._take()
            tag = item[0]
            if tag == _EVENTS:
                events, enqueued_at, carried = self._coalesce(item[1], item[2])
                if self._ingest_delay:
                    time.sleep(self._ingest_delay)
                try:
                    self._apply(events)
                    self.events_applied += len(events)
                    self.batches_applied += 1
                    self._events_counter.inc(len(events))
                    self._ingest_hist.observe(time.monotonic() - enqueued_at)
                except Exception as error:  # noqa: BLE001 - session must survive
                    # A failed batch is *lost*, not silently absorbed:
                    # account it and warn, mirroring the pipeline's
                    # degradation contract.
                    self._note_drops(len(events))
                    self.apply_errors += 1
                    warnings.warn(
                        f"tenant {self.tenant_id!r}: dropped batch of "
                        f"{len(events)} event(s) after apply failure "
                        f"({type(error).__name__}: {error})",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                finally:
                    self._events_drained += len(events)
                    self._lag_gauge.set(self.pending_events)
            elif tag == _QUERY:
                _, op, payload, future = item
                if future.done():  # the asking connection was cancelled
                    continue
                try:
                    result = self._answer(op, payload)
                except Exception as error:  # noqa: BLE001
                    self._reply(
                        future,
                        None,
                        ServiceError(
                            f"query failed: {type(error).__name__}: {error}"
                        ),
                    )
                else:
                    self._reply(future, result)
            else:  # _STOP
                self._finish(checkpoint=item[1])
                return

    def _finish(self, *, checkpoint: bool) -> None:
        """Final checkpoint, then reap pipeline workers (drain thread)."""
        if checkpoint and self._checkpointer is not None:
            self._checkpointer.save()
        if isinstance(self.clusterer, PipelineClusterer):
            dropped_before = self.clusterer.dropped_events
            self.clusterer.close()
            self._note_drops(self.clusterer.dropped_events - dropped_before)

    def _answer(self, op: bytes, payload: bytes) -> bytes:
        """Compute one query reply (drain thread)."""
        from repro.serve.protocol import (
            OP_MEMBERSHIP,
            OP_METRICS,
            OP_SNAPSHOT,
            render_membership,
            render_snapshot,
        )

        if op == OP_SNAPSHOT:
            return render_snapshot(self.clusterer.snapshot()).encode("utf-8")
        if op == OP_MEMBERSHIP:
            # The payload may be a memoryview over the receive buffer.
            token = bytes(payload).decode("utf-8")
            try:
                vertex: object = int(token)
            except ValueError:
                vertex = token
            members = self.clusterer.cluster_members(vertex)
            return render_membership(members).encode("utf-8")
        if op == OP_METRICS:
            import json

            return json.dumps(self.metrics(), sort_keys=True).encode("utf-8")
        raise ServiceError(f"unknown query opcode {op!r}")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _note_drops(self, count: int) -> None:
        if count > 0:
            self.drops += count
            self._drops_counter.inc(count)

    @property
    def position(self) -> int:
        """Stream position: resumed offset + events applied here."""
        if self._checkpointer is not None:
            return self._checkpointer.position
        return self.resumed_position + self.events_applied

    def metrics(self) -> dict:
        """The tenant's SLO view as a JSON-able dict.

        Answered on the drain thread like any barrier query, so the
        numbers reflect every event accepted before the request, and
        ``queue_lag_events`` counts exactly the events queued behind it.
        """
        elapsed = max(time.monotonic() - self._started, 1e-9)
        p99 = self._ingest_hist.quantile(0.99)
        info = {
            "tenant": self.tenant_id,
            "events": self.events_applied,
            "position": self.position,
            "events_per_second": self.events_applied / elapsed,
            "queue_lag_events": self.pending_events,
            "coalesced_batches": self.batches_coalesced,
            "drops": self.drops,
            "apply_errors": self.apply_errors,
            # None = the p99 fell in the histogram's overflow bucket
            # (no finite upper bound on the grid); JSON has no Infinity.
            "p99_ingest_seconds": p99 if p99 != float("inf") else None,
            "mean_ingest_seconds": self._ingest_hist.mean,
            "clusters": self.clusterer.num_clusters,
        }
        if isinstance(self.clusterer, StreamingGraphClusterer):
            info["reservoir_size"] = self.clusterer.reservoir_size
        else:
            info["reservoir_size"] = self.clusterer.total_reservoir_size
        if self._checkpointer is not None:
            info["checkpoint"] = {
                "path": str(self._checkpointer.path),
                "saves": self._checkpointer.saves,
                "last_saved_position": self._checkpointer.last_saved_position,
            }
        return info


def _settle(future: asyncio.Future, result, error) -> None:
    """Resolve ``future`` on its loop unless its waiter was cancelled."""
    if future.done():
        return
    if error is None:
        future.set_result(result)
    else:
        future.set_exception(error)
