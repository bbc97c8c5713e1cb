"""Structured periodic progress reporting for long-lived stream jobs.

A :class:`ProgressReporter` wraps an event iterable and emits a one-line
report every ``every`` events::

    progress: 120,000 events (83.4k ev/s), reservoir 6000/6000 (100%), \
clusters 412, ckpt lag 1200

Counting happens in the wrapper itself (the clusterer's own statistics
are settled at batch boundaries), while reservoir
fill, cluster count, and checkpoint lag are read from the live objects —
they are therefore *batch-granular*: inside a batch the reported cluster
count may trail the event counter by up to one batch of updates, which
is exactly the staleness the batched fast path already exposes to
queries. Reports go to ``stderr`` by default so they never corrupt a
label stream on ``stdout``.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Iterable, Iterator, Optional, TextIO, TypeVar

__all__ = ["ProgressReporter", "format_rate"]

E = TypeVar("E")


def format_rate(events_per_sec: float) -> str:
    """Human-scale events/sec: ``83.4k``, ``1.2M``, ``950``."""
    if events_per_sec >= 1e6:
        return f"{events_per_sec / 1e6:.1f}M"
    if events_per_sec >= 1e3:
        return f"{events_per_sec / 1e3:.1f}k"
    return f"{events_per_sec:.0f}"


class ProgressReporter:
    """Emit periodic one-line progress reports while a stream is consumed.

    Parameters
    ----------
    every:
        Emit a report each time this many events have passed through
        :meth:`wrap` (must be positive).
    clusterer:
        The clusterer being fed; read for reservoir fill and cluster
        count. Works with :class:`~repro.core.clusterer.StreamingGraphClusterer`
        and anything exposing ``reservoir_size``/``config``/``num_clusters``
        (missing attributes degrade to omitted fields, so sharded
        drivers report what they can). A clusterer may instead expose
        ``progress_snapshot() -> dict`` to publish only the fields that
        are cheap to read — the reporter then never touches attributes
        that would act as cross-process barriers (used by
        :class:`~repro.core.pipeline.PipelineClusterer`).
    checkpointer:
        Optional :class:`~repro.persist.checkpoint.PeriodicCheckpointer`;
        when given, the report includes the checkpoint lag (events
        processed since the last durable save).
    out:
        Report sink (default ``sys.stderr``).
    clock:
        Injectable monotonic clock, for deterministic tests.
    """

    def __init__(
        self,
        every: int,
        clusterer: object,
        checkpointer: Optional[object] = None,
        out: Optional[TextIO] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if every <= 0:
            raise ValueError(f"every must be positive, got {every}")
        self.every = every
        self.clusterer = clusterer
        self.checkpointer = checkpointer
        self.out = out if out is not None else sys.stderr
        self.clock = clock
        self.events = 0
        self.reports = 0
        self._started: Optional[float] = None
        self._last_time: Optional[float] = None
        self._last_events = 0

    def wrap(self, events: Iterable[E]) -> Iterator[E]:
        """Yield ``events`` unchanged, reporting every ``every`` items."""
        every = self.every
        if self._started is None:
            self._started = self._last_time = self.clock()
        for event in events:
            yield event
            self.events += 1
            if self.events % every == 0:
                self.report()

    def report(self) -> None:
        """Emit one progress line now (normally called by :meth:`wrap`)."""
        now = self.clock()
        window = now - (self._last_time if self._last_time is not None else now)
        window_events = self.events - self._last_events
        rate = window_events / window if window > 0 else 0.0
        self._last_time = now
        self._last_events = self.events
        parts = [f"progress: {self.events:,} events ({format_rate(rate)} ev/s)"]
        hook = getattr(self.clusterer, "progress_snapshot", None)
        if hook is not None:
            # Clusterers whose queries are expensive barriers (e.g. the
            # multiprocess pipeline) expose the cheap subset explicitly;
            # a report line must never stall ingestion behind a merge.
            fields = hook()
            if "reservoir" in fields:
                parts.append(f"reservoir {fields['reservoir']}")
            if "clusters" in fields:
                parts.append(f"clusters {fields['clusters']}")
        else:
            fill = self._reservoir_part()
            if fill:
                parts.append(fill)
            clusters = getattr(self.clusterer, "num_clusters", None)
            if clusters is not None:
                parts.append(f"clusters {clusters}")
        lag = self._checkpoint_lag()
        if lag is not None:
            parts.append(f"ckpt lag {lag}")
        self.reports += 1
        print(", ".join(parts), file=self.out)

    def _reservoir_part(self) -> Optional[str]:
        size = getattr(self.clusterer, "reservoir_size", None)
        if size is None:
            size = getattr(self.clusterer, "total_reservoir_size", None)
        if size is None:
            return None
        config = getattr(self.clusterer, "config", None)
        capacity = getattr(config, "reservoir_capacity", None)
        if capacity:
            return f"reservoir {size}/{capacity} ({100 * size // capacity}%)"
        return f"reservoir {size}"

    def _checkpoint_lag(self) -> Optional[int]:
        checkpointer = self.checkpointer
        if checkpointer is None:
            return None
        position = getattr(checkpointer, "position", None)
        saved = getattr(checkpointer, "last_saved_position", None)
        if position is None or saved is None:
            return None
        return position - saved

    def __repr__(self) -> str:
        return (
            f"ProgressReporter(every={self.every}, events={self.events}, "
            f"reports={self.reports})"
        )
