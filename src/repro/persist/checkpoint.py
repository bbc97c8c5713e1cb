"""Checkpointing clusterers: save, load, and periodic-save wrappers.

The paper's algorithm is online over an unbounded stream; a production
deployment must therefore survive restarts *without replaying history*.
A checkpoint captures the complete clusterer state — reservoir contents
and RNG state, stream statistics, tracked graph, vertex set — plus the
stream position, so that

    crash → :func:`load_checkpoint` → replay the tail of the stream

yields the *identical* partition, statistics, and reservoir as an
uninterrupted run with the same seed (property-tested in
``tests/test_persist_property.py``).

Use :class:`PeriodicCheckpointer` to bound the replay tail: it wraps any
clusterer and rewrites the checkpoint every ``every`` events (atomic
write-rename, so a crash during the save keeps the previous one).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Union

from repro.obs import metrics as _obs
from repro.core.clusterer import StreamingGraphClusterer
from repro.core.pipeline import PipelineClusterer
from repro.core.sharded import ShardedClusterer
from repro.errors import CheckpointError
from repro.persist.canonical import canonicalize
from repro.persist.format import PathLike, read_container, write_container
from repro.streams.events import EdgeEvent, EventColumns

__all__ = [
    "STATE_VERSION",
    "Checkpoint",
    "PeriodicCheckpointer",
    "load_checkpoint",
    "save_checkpoint",
]

STATE_VERSION = 1

_KINDS = {
    "clusterer.single": StreamingGraphClusterer,
    "clusterer.sharded": ShardedClusterer,
}

Checkpointable = Union[StreamingGraphClusterer, ShardedClusterer, PipelineClusterer]


def _kind_of(clusterer: Checkpointable) -> str:
    # A pipeline's state is format-identical to a sequential sharded
    # clusterer's, and restoring as one keeps checkpoints portable: a
    # file written by an N-worker pipeline loads on a machine with no
    # multiprocessing at all (convert back explicitly with
    # PipelineClusterer.from_state to resume pipelined).
    if isinstance(clusterer, PipelineClusterer):
        return "clusterer.sharded"
    for kind, cls in _KINDS.items():
        if isinstance(clusterer, cls):
            return kind
    raise TypeError(
        f"cannot checkpoint {type(clusterer).__name__}; expected one of "
        f"{sorted(cls.__name__ for cls in _KINDS.values())}"
    )


@dataclass
class Checkpoint:
    """A restored checkpoint: the clusterer plus its stream position."""

    clusterer: Checkpointable
    position: int
    kind: str

    def remaining(self, events: Iterable[EdgeEvent]) -> Iterable[EdgeEvent]:
        """The unprocessed tail of ``events`` (skips ``position`` items).

        Use with the *same* event sequence the crashed run consumed.
        """
        return islice(iter(events), self.position, None)


def save_checkpoint(
    clusterer: Checkpointable, path: PathLike, *, position: int = 0
) -> int:
    """Atomically write ``clusterer``'s full state to ``path``.

    ``position`` records how many stream events have been consumed so a
    resuming driver knows where the tail starts. Returns the checkpoint
    size in bytes.

    Sharded-kind payloads are value-canonicalized before pickling (see
    :mod:`repro.persist.canonical`): their states may be assembled from
    worker-process pickles, whose object sharing differs from in-process
    execution, and canonicalization makes the bytes a function of the
    state's *value* — so pipeline and sequential sharded checkpoints of
    the same logical state are identical files.
    """
    kind = _kind_of(clusterer)
    state = clusterer.get_state()
    if kind == "clusterer.sharded":
        state = canonicalize(state)
    payload = {
        "state_version": STATE_VERSION,
        "kind": kind,
        "position": int(position),
        "state": state,
    }
    return write_container(path, payload)


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`~repro.errors.CheckpointError` for anything that
    cannot be trusted: corrupted files, unknown state versions, unknown
    clusterer kinds, or structurally invalid state dicts.
    """
    payload = read_container(path)
    version = payload.get("state_version")
    if version != STATE_VERSION:
        raise CheckpointError(
            f"{path}: unsupported state version {version!r} "
            f"(this build reads {STATE_VERSION})"
        )
    kind = payload.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise CheckpointError(f"{path}: unknown checkpoint kind {kind!r}")
    try:
        clusterer = cls.from_state(payload["state"])
        position = int(payload["position"])
    except CheckpointError:
        raise
    except Exception as error:
        raise CheckpointError(f"{path}: invalid checkpoint state: {error}")
    return Checkpoint(clusterer=clusterer, position=position, kind=kind)


class PeriodicCheckpointer:
    """Feed a clusterer while checkpointing every ``every`` events.

    >>> import tempfile, os
    >>> from repro.core import ClustererConfig, StreamingGraphClusterer
    >>> from repro.streams import add_edge
    >>> path = os.path.join(tempfile.mkdtemp(), "ck.rpk")
    >>> pc = PeriodicCheckpointer(
    ...     StreamingGraphClusterer(ClustererConfig(reservoir_capacity=10)),
    ...     path, every=2)
    >>> _ = pc.process([add_edge(1, 2), add_edge(2, 3), add_edge(3, 4)])
    >>> pc.position, pc.saves >= 2  # initial save + one periodic save
    (3, True)
    >>> resumed = PeriodicCheckpointer.resume(path, every=2)
    >>> resumed.position  # last periodic save was after event 2
    2

    ``every=0`` disables periodic saves; only :meth:`save` writes. An
    initial checkpoint is written at construction (unless
    ``save_initial=False``) so a crash before the first interval is
    still recoverable.
    """

    def __init__(
        self,
        clusterer: Checkpointable,
        path: PathLike,
        every: int = 0,
        *,
        position: int = 0,
        save_initial: bool = True,
    ) -> None:
        if every < 0:
            raise ValueError(f"every must be >= 0, got {every}")
        self.clusterer = clusterer
        self.path = path
        self.every = every
        self.position = position
        self.saves = 0
        #: Stream position of the most recent durable save — the
        #: difference against ``position`` is the *checkpoint lag* (how
        #: many events a crash right now would replay).
        self.last_saved_position = position
        if save_initial:
            self.save()

    @classmethod
    def resume(cls, path: PathLike, every: int = 0) -> "PeriodicCheckpointer":
        """Restore from ``path`` and continue checkpointing to it."""
        checkpoint = load_checkpoint(path)
        return cls(
            checkpoint.clusterer,
            path,
            every,
            position=checkpoint.position,
            save_initial=False,
        )

    def save(self) -> int:
        """Write a checkpoint now (atomic); returns its size in bytes."""
        start = time.perf_counter()
        size = save_checkpoint(self.clusterer, self.path, position=self.position)
        self.saves += 1
        self.last_saved_position = self.position
        if _obs._ENABLED:
            registry = _obs.default_registry()
            registry.histogram("checkpoint.save_seconds").observe(
                time.perf_counter() - start
            )
            registry.counter("checkpoint.bytes_written").inc(size)
            registry.counter("checkpoint.saves").inc()
            registry.gauge("checkpoint.last_saved_position").set(self.position)
        return size

    def apply(self, event: EdgeEvent) -> None:
        """Apply one event, checkpointing when the interval elapses."""
        self.clusterer.apply(event)
        self.position += 1
        if self.every and self.position % self.every == 0:
            self.save()

    def apply_many(self, events: Iterable) -> None:
        """Apply a batch through the clusterer's batched fast path.

        The batch is split at checkpoint-interval boundaries, so saves
        land at exactly the same stream positions as per-event
        :meth:`apply` — a resumed run replays the identical tail.
        Accepts :class:`~repro.streams.events.EventColumns` as well as
        event iterables; column batches split by slicing (no tuple
        materialization on the columnar wire path).
        """
        if type(events) is EventColumns:
            total = len(events)
            if not total:
                return
            if not self.every:
                self.clusterer.apply_many(events)
                self.position += total
                return
            start = 0
            while start < total:
                room = self.every - self.position % self.every
                stop = min(total, start + room)
                self.clusterer.apply_many(events.slice(start, stop))
                self.position += stop - start
                if self.position % self.every == 0:
                    self.save()
                start = stop
            return
        iterator = iter(events)
        if not self.every:
            chunk = list(iterator)
            if chunk:
                self.clusterer.apply_many(chunk)
                self.position += len(chunk)
            return
        while True:
            room = self.every - self.position % self.every
            chunk = list(islice(iterator, room))
            if not chunk:
                return
            self.clusterer.apply_many(chunk)
            self.position += len(chunk)
            if self.position % self.every == 0:
                self.save()

    def process(
        self, events: Iterable, batch_size: int | None = None
    ) -> "PeriodicCheckpointer":
        """Apply a whole stream; returns self for chaining.

        ``batch_size`` chunks the stream through :meth:`apply_many`
        (checkpoints still land at exact ``every`` multiples); ``None``
        keeps the per-event path. Chunks never span more than one
        checkpoint interval — buffering past an interval would mean a
        crash mid-buffer loses events the per-event cadence would
        already have checkpointed.
        """
        if batch_size:
            if self.every:
                batch_size = min(batch_size, self.every)
            iterator = iter(events)
            while True:
                chunk = list(islice(iterator, batch_size))
                if not chunk:
                    return self
                self.apply_many(chunk)
        for event in events:
            self.apply(event)
        return self

    def remaining(self, events: Iterable[EdgeEvent]) -> Iterable[EdgeEvent]:
        """The unprocessed tail of ``events`` given the current position."""
        return islice(iter(events), self.position, None)

    def __repr__(self) -> str:
        return (
            f"PeriodicCheckpointer(path={str(self.path)!r}, "
            f"every={self.every}, position={self.position}, saves={self.saves})"
        )
