"""Lightweight process-local metrics: counters, gauges, histograms, timers.

The paper's algorithm runs *online* over unending streams, so the
operational behaviour of a long-lived job — event rates, reservoir
occupancy, checkpoint latency, shard skew — is a first-class deliverable
(cf. X-Stream's emphasis on progress/memory/degradation reporting and
CluStRE's per-stage breakdowns). This module provides the minimal
vocabulary to expose it without adding a dependency or measurable
overhead:

* :class:`Counter` — monotonically increasing count (events, retries).
* :class:`Gauge` — a point-in-time value (reservoir fill, shard skew).
* :class:`Histogram` — fixed-boundary bucketed distribution (checkpoint
  save latency).
* :class:`MetricsRegistry.timer` — named phase timers built on
  :class:`repro.util.timer.PhaseTimer`, surfaced as metrics.

Instruments live in a :class:`MetricsRegistry`; the process-global
default registry (:func:`default_registry`) is what the instrumented
library layers and the CLI share.

No-op mode
----------
Metrics are **disabled by default**. Instrumented call sites guard their
emission with a single branch on the module flag (``metrics._ENABLED``
via :func:`is_enabled`), and the hot ingestion layers only emit at
*batch* granularity, so the disabled cost is one predictable branch per
batch — asserted to be <3% of ingestion throughput by
``benchmarks/perf_smoke.py``. :func:`enable` flips the flag for the
whole process.

Export
------
:meth:`MetricsRegistry.snapshot` returns a plain JSON-able dict;
:meth:`MetricsRegistry.to_lines` renders the influx-style line protocol
(``name kind=...,value=... ``); :meth:`MetricsRegistry.write_json`
writes a snapshot file (the CLI's ``--metrics-out``). See
``docs/observability.md`` for the metric catalog.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.util.timer import PhaseTimer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "disable",
    "enable",
    "is_enabled",
    "set_enabled",
]

Number = Union[int, float]

#: Process-global emission flag. Instrumented call sites read this via a
#: single module-attribute branch; keep it a plain module global so the
#: disabled path stays one predictable load+jump.
_ENABLED = False


def enable() -> None:
    """Turn on metric emission for the whole process."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn off metric emission (the default)."""
    global _ENABLED
    _ENABLED = False


def set_enabled(flag: bool) -> None:
    """Set the emission flag explicitly (see :func:`enable`)."""
    global _ENABLED
    _ENABLED = bool(flag)


def is_enabled() -> bool:
    """True when instrumented call sites emit metrics."""
    return _ENABLED


class Counter:
    """A monotonically increasing count.

    >>> c = Counter("demo.events")
    >>> c.inc(); c.inc(41); c.value
    42
    """

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time value that can move in both directions."""

    __slots__ = ("name", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, value: Number) -> None:
        """Record the current value."""
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


#: Default latency buckets (seconds) — spans sub-millisecond in-memory
#: saves through multi-second checkpoint rewrites.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


class Histogram:
    """Fixed-boundary bucketed distribution of observed values.

    Boundaries are upper-inclusive bucket edges; one implicit overflow
    bucket (``+Inf``) catches everything above the last edge. ``sum``
    and ``count`` allow mean reconstruction; per-bucket cumulative
    counts allow quantile estimates.

    >>> h = Histogram("demo.latency", buckets=(0.1, 1.0))
    >>> for v in (0.05, 0.5, 3.0): h.observe(v)
    >>> h.count, h.bucket_counts
    (3, [1, 1, 1])
    """

    __slots__ = ("name", "help", "buckets", "bucket_counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges or any(nxt <= prev for prev, nxt in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram {name}: bucket boundaries must be strictly "
                f"increasing and non-empty, got {buckets!r}"
            )
        self.name = name
        self.help = help
        self.buckets = edges
        self.bucket_counts: List[int] = [0] * (len(edges) + 1)  # + overflow
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: Number) -> None:
        """Record one observation."""
        # bisect_left keeps edges upper-inclusive (``value <= edge``
        # lands at that edge), matching the ``le_<edge>`` export fields.
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 before the first)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile from the buckets.

        Returns the smallest bucket edge whose cumulative count covers
        a ``q`` fraction of observations — i.e. "q of all observations
        were <= this value". Resolution is the bucket grid: the service
        SLO report (p99 ingest latency) needs no more. Returns 0.0
        before the first observation and ``inf`` when the quantile
        falls in the overflow bucket (the grid has no upper bound for
        it; pick wider buckets if that happens in practice).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        threshold = q * self.count
        cumulative = 0
        for edge, bucket_count in zip(self.buckets, self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= threshold:
                return edge
        return float("inf")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, sum={self.sum:.6g})"


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named collection of metric instruments.

    Instruments are created on first use (``registry.counter(name)``)
    and are stable thereafter — repeated calls with the same name return
    the same object, so call sites never cache handles unless they want
    to. Re-requesting a name as a different instrument kind is an error
    (it would silently fork the series).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._timer = PhaseTimer()
        #: Bumped by :meth:`reset`, which drops every instrument: a caller
        #: that keeps handles fetches them again when this moved.
        self.generation = 0

    # ------------------------------------------------------------------
    # Instrument factories (get-or-create)
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, help: str, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help=help, **kwargs)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(Gauge, name, help)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """Get or create the histogram ``name`` (boundaries fixed at
        creation; later calls ignore ``buckets``)."""
        return self._get(Histogram, name, help, buckets=buckets)

    def timer(self, name: str):
        """A context manager accumulating wall-clock into phase ``name``.

        Built on :class:`repro.util.timer.PhaseTimer`; totals surface in
        snapshots under ``timer.<name>`` as seconds.
        """
        return self._timer.phase(name)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        """The instrument registered under ``name``, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names (sorted), including timers."""
        names = set(self._metrics)
        names.update(f"timer.{phase}" for phase in self._timer.totals)
        return sorted(names)

    def __len__(self) -> int:
        return len(self._metrics) + len(self._timer.totals)

    def __contains__(self, name: str) -> bool:
        return name in self.names()

    def reset(self) -> None:
        """Drop every instrument and timer total."""
        self._metrics.clear()
        self._timer = PhaseTimer()
        self.generation += 1

    def snapshot(self) -> Dict[str, dict]:
        """A JSON-able ``{name: {kind, value, ...}}`` view of everything.

        Phase-timer totals are folded in as ``timer.<phase>`` gauges
        (seconds), so one snapshot carries the full picture.
        """
        snap = {
            name: metric.as_dict() for name, metric in sorted(self._metrics.items())
        }
        for phase, seconds in sorted(self._timer.totals.items()):
            snap[f"timer.{phase}"] = {"kind": "timer", "value": seconds}
        return snap

    def to_lines(self) -> List[str]:
        """Influx-style line-protocol rendering, one metric per line.

        Counters/gauges/timers render as ``name kind=...,value=...``;
        histograms add ``sum``, ``count``, and cumulative ``le_<edge>``
        fields. Line order is sorted by name, so output is diffable.
        """
        lines: List[str] = []
        for name, payload in self.snapshot().items():
            kind = payload["kind"]
            if kind == "histogram":
                fields = ['kind="histogram"']
                cumulative = 0
                for edge, count in zip(
                    payload["buckets"], payload["bucket_counts"]
                ):
                    cumulative += count
                    fields.append(f"le_{edge:g}={cumulative}i")
                fields.append(f"sum={payload['sum']:.9g}")
                fields.append(f"count={payload['count']}i")
            else:
                value = payload["value"]
                rendered = (
                    f"{value}i" if isinstance(value, int) else f"{value:.9g}"
                )
                fields = [f'kind="{kind}"', f"value={rendered}"]
            lines.append(f"{name} " + ",".join(fields))
        return lines

    def write_json(self, path, *, indent: int = 2) -> None:
        """Write :meth:`snapshot` to ``path`` as a JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=indent, sort_keys=True)
            handle.write("\n")

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} metrics)"


#: The process-global registry all instrumented library layers share.
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _DEFAULT
