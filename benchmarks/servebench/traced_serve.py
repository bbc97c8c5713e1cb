"""Run ``repro serve`` with spans around the program's layer entry points.

Usage::

    python benchmarks/servebench/traced_serve.py TRACE_OUT serve [ARGS...]

The launcher wraps the public entry points of each layer (listed in
:data:`SYNC_POINTS` and :data:`ASYNC_POINTS`) when it starts, then hands
``ARGS`` to ``repro.cli.main``. Spans stay in memory: name, start, end,
the enclosing span on the same thread, and the thread. Coroutine spans
(the session's enqueue and query) interleave on the event loop, so they
are recorded but never become parents. When the daemon exits after a
graceful SIGTERM, the spans are aggregated per layer (calls, busy time,
self time) and written to ``TRACE_OUT`` as JSON.

The program's own sources are not modified; only the benchmark's files
know about the spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

#: (span name, module, attribute path) of every synchronous entry point.
#: ``edge_components`` is patched in both modules because
#: ``repro.core.batchkernel`` imported the name at import time.
SYNC_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("codec.decode", "repro.streams.codec", "DeltaBatchDecoder.decode"),
    ("clusterer.apply_many", "repro.core.clusterer", "StreamingGraphClusterer.apply_many"),
    ("clusterer.cluster_members", "repro.core.clusterer",
     "StreamingGraphClusterer.cluster_members"),
    ("clusterer.snapshot", "repro.core.clusterer", "StreamingGraphClusterer.snapshot"),
    ("batchkernel.apply", "repro.core.batchkernel", "NumpyBatchKernel.apply_columns"),
    ("batchkernel.apply", "repro.core.batchkernel", "NumpyBatchKernel.apply_stream"),
    ("batchkernel.sync", "repro.core.batchkernel", "NumpyBatchKernel.sync"),
    ("batchkernel.settle_stats", "repro.core.batchkernel", "NumpyBatchKernel.settle_stats"),
    ("vectorized.insert_many", "repro.sampling.vectorized",
     "NumpyPackedEdgeReservoir.insert_many"),
    ("vectorized.edge_components", "repro.sampling.vectorized", "edge_components"),
    ("vectorized.edge_components", "repro.core.batchkernel", "edge_components"),
    ("connectivity.insert_edge", "repro.connectivity.hdt", "HDTConnectivity.insert_edge"),
    ("connectivity.delete_edge", "repro.connectivity.hdt", "HDTConnectivity.delete_edge"),
    ("connectivity.components", "repro.connectivity.hdt", "HDTConnectivity.components"),
    ("connectivity.component_members", "repro.connectivity.hdt",
     "HDTConnectivity.component_members"),
    ("partition.build", "repro.quality.partition", "Partition.__init__"),
    ("protocol.render", "repro.serve.protocol", "render_snapshot"),
    ("protocol.render", "repro.serve.protocol", "render_membership"),
    ("persist.save", "repro.persist.checkpoint", "PeriodicCheckpointer.save"),
)

ASYNC_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("session.enqueue", "repro.serve.session", "TenantSession.enqueue_events"),
    ("session.query", "repro.serve.session", "TenantSession.query"),
)

# Span tuple fields.
_ID, _NAME, _START, _END, _PARENT = range(5)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: Raw observations of every ``serve.tenant.*.ingest_seconds``
        #: histogram (enqueue -> applied), which the histogram itself
        #: keeps only as bucket counts.
        self.ingest_seconds: List[float] = []
        self.clusterers: list = []

    def wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, threading.get_ident()))

        return traced

    def wrap_async(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                spans.append((next(ids), name, start, clock(), -1, threading.get_ident()))

        return traced

    def install(self) -> None:
        wrapped: Dict[Tuple[str, str], object] = {}
        for points, wrap in ((SYNC_POINTS, self.wrap), (ASYNC_POINTS, self.wrap_async)):
            for name, module_name, path in points:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                # One wrapper per function, so a re-exported name does not
                # record the same call twice.
                key = (name, getattr(original, "__qualname__", attr))
                if key not in wrapped:
                    wrapped[key] = wrap(name, original)
                setattr(owner, attr, wrapped[key])

        from repro.core.clusterer import StreamingGraphClusterer
        from repro.obs.metrics import Histogram

        observe = Histogram.observe
        lags = self.ingest_seconds

        def observe_raw(histogram, value):
            if histogram.name.endswith(".ingest_seconds"):
                lags.append(value)
            observe(histogram, value)

        Histogram.observe = observe_raw

        init = StreamingGraphClusterer.__init__
        clusterers = self.clusterers

        def init_tracked(clusterer, *args, **kwargs):
            init(clusterer, *args, **kwargs)
            clusterers.append(clusterer)

        StreamingGraphClusterer.__init__ = init_tracked

    def layers(self) -> Dict[str, dict]:
        """Per span name: calls, busy seconds and self seconds.

        Busy time counts the outermost span of a name only, so a layer
        that re-enters itself is not counted twice. Self time is a
        span's duration minus the part its child spans cover; children
        run on the parent's thread, one after another.
        """
        spans = {span[_ID]: span for span in self.spans}
        child_time: Dict[int, float] = {}
        for span in spans.values():
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] = (
                    child_time.get(span[_PARENT], 0.0) + span[_END] - span[_START]
                )
        out: Dict[str, dict] = {}
        for span_id, span in spans.items():
            name = span[_NAME]
            duration = span[_END] - span[_START]
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += duration - child_time.get(span_id, 0.0)
            parent = span[_PARENT]
            while parent >= 0 and spans[parent][_NAME] != name:
                parent = spans[parent][_PARENT]
            if parent < 0:
                row["busy_s"] += duration
        return dict(sorted(out.items()))

    def dump(self, path: str) -> None:
        record = {
            "spans": len(self.spans),
            "layers": self.layers(),
            "ingest_seconds": self.ingest_seconds,
            "intern_vertices": sum(len(c.interner) for c in self.clusterers),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print("usage: traced_serve.py TRACE_OUT serve [ARGS...]", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as repro_main

    code = repro_main(argv[1:])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
