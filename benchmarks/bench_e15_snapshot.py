"""E15 — snapshot cost at scale (extension).

A served tenant hands its clustering over as a SNAPSHOT reply:
``snapshot()`` builds the immutable :class:`~repro.quality.Partition`,
then ``render_snapshot`` writes it as ``vertex<TAB>cluster`` lines in
the canonical cluster order. ``repro cluster`` writes its label files
the same way. Both steps run on the tenant's drain thread, so their
cost is how long every other request of that tenant waits.

Measured in-process on G(n, p) graphs at 5k, 50k and 200k vertices
(average degree 4), streamed in 8,192-event batches through the numpy
kernel into a lean clusterer with a reservoir of capacity V/4. Before
each read a one-edge update between two fresh vertices changes the
vertex set, so every read builds its partition again, as a read of a
live tenant does. Each row gives the median over its reads of
``snapshot()`` and of ``render_snapshot``, and one SHA-256 over every
read's text in turn: the digest must not change when the
implementation of either step does.

Expected shape: both steps grow a little faster than V. Every vertex
is an int here, so ``snapshot()`` hands the partition its vertices and
their cluster numbers as two int64 columns, and the canonical order is
numpy sorts: the vertices by a numeric key equal to their ``repr``
order, then by their cluster's size and smallest member. Render, which
includes that order, stays the larger step; the order and the one
``%`` format over every line take about half of it each.
"""

import hashlib
import statistics
import time

from bench_common import finish
from repro import obs
from repro.bench import ExperimentResult
from repro.core import ClustererConfig, StreamingGraphClusterer
from repro.serve.protocol import render_snapshot
from repro.streams import EventKind, erdos_renyi_edges, insert_only_stream_raw

#: (vertices, reads); fewer reads where one read takes seconds.
SIZES = ((5_000, 25), (50_000, 9), (200_000, 5))
AVERAGE_DEGREE = 4
BATCH = 8192
SEED = 15


def _tenant(num_vertices: int) -> StreamingGraphClusterer:
    edges = erdos_renyi_edges(num_vertices, AVERAGE_DEGREE / num_vertices, seed=SEED)
    events = insert_only_stream_raw(edges, seed=SEED)
    clusterer = StreamingGraphClusterer(
        ClustererConfig(
            reservoir_capacity=num_vertices // 4,
            track_graph=False,
            strict=False,
            seed=SEED,
            kernel="numpy",
        )
    )
    for start in range(0, len(events), BATCH):
        clusterer.apply_many(events[start:start + BATCH])
    return clusterer


def _read(clusterer: StreamingGraphClusterer, probe: int):
    """One-edge update, then one timed snapshot and one timed render."""
    # Negative ids never occur in the G(n, p) stream.
    clusterer.apply_many([(EventKind.ADD_EDGE, -2 * probe - 1, -2 * probe - 2)])
    start = time.perf_counter()
    partition = clusterer.snapshot()
    built = time.perf_counter()
    text = render_snapshot(partition)
    rendered = time.perf_counter()
    return built - start, rendered - built, text


def test_e15_snapshot(benchmark):
    result = ExperimentResult(
        "e15_snapshot",
        "snapshot() and render_snapshot on a numpy tenant after a one-edge "
        "update, G(n, p) with average degree 4, capacity V/4",
    )
    # Metric emission would add a registry sync to every snapshot().
    obs.disable()
    try:
        small = _tenant(SIZES[0][0])
        benchmark.pedantic(lambda: _read(small, 0), rounds=1, iterations=1)
        for num_vertices, reads in SIZES:
            clusterer = _tenant(num_vertices)
            digest = hashlib.sha256()
            snapshot_s, render_s = [], []
            for probe in range(1, reads + 1):
                built, rendered, text = _read(clusterer, probe)
                snapshot_s.append(built)
                render_s.append(rendered)
                digest.update(text.encode("utf-8"))
            partition = clusterer.snapshot()
            result.add_row(
                vertices=partition.num_vertices,
                sampled_edges=clusterer.reservoir_size,
                clusters=partition.num_clusters,
                reads=reads,
                snapshot_ms=round(statistics.median(snapshot_s) * 1e3, 2),
                render_ms=round(statistics.median(render_s) * 1e3, 2),
                reply_kib=round(len(text.encode("utf-8")) / 1024, 1),
                sha256=digest.hexdigest(),
            )
    finally:
        obs.enable()
    finish(result)
