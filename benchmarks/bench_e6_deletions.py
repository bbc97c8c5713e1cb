"""E6 — deletions and drift: quality tracking under churn (figure).

The paper's stream model includes deletions; this experiment shows the
clusterer *tracking* a changing ground truth. A drifting SBM moves 25%
of the vertices to new communities each phase (deleting stale edges,
adding fresh ones). After every phase we score:

* the streaming clusterer (processed every event incrementally),
* a one-shot offline Louvain computed at phase 0 and never updated,
* a periodic Louvain recomputed once per phase (the affordable offline
  deployment).

Expected shape: streaming quality stays roughly flat across phases; the
stale offline clustering decays monotonically; periodic recompute
matches streaming quality but at E4's throughput cost.

The kernel rows (``metadata["kernels"]``) run the same drifting stream
unconstrained through both batch kernels at batch 1024: events/s
(best of 3, kernels alternating), the events that fell back to the
per-event path, and the sampled edges deleted. The numpy kernel applies
edge deletions in place, so its fallback count must be 0.
"""

import time

from bench_common import finish
from repro.baselines import louvain
from repro.bench import ExperimentResult, render_table
from repro.core import ClustererConfig, MaxClusterSize, StreamingGraphClusterer
from repro.graph import AdjacencyGraph
from repro.quality import pairwise_f1
from repro.streams import drifting_sbm_stream

PHASES = 6
KERNEL_BATCH = 1024
KERNEL_REPS = 3


def _phases():
    return drifting_sbm_stream(
        num_vertices=500,
        num_communities=10,
        p_in=0.2,
        p_out=0.0004,
        num_phases=PHASES,
        migrate_fraction=0.25,
        seed=61,
    )


def test_e6_deletion_tracking(benchmark):
    phases = _phases()

    def run_all():
        clusterer = StreamingGraphClusterer(
            ClustererConfig(
                reservoir_capacity=5000,
                constraint=MaxClusterSize(80),
                strict=False,
                seed=4,
            )
        )
        for phase in phases:
            clusterer.process(phase.events)
        return clusterer

    benchmark.pedantic(run_all, rounds=3, iterations=1)

    result = ExperimentResult(
        "e6_deletions",
        "quality tracking under community drift (25% migration per phase)",
    )
    clusterer = StreamingGraphClusterer(
        ClustererConfig(
            reservoir_capacity=5000,
            constraint=MaxClusterSize(80),
            strict=False,
            seed=4,
        )
    )
    graph = AdjacencyGraph()
    stale = None
    streaming_scores = []
    stale_scores = []
    for index, phase in enumerate(phases):
        clusterer.process(phase.events)
        for event in phase.events:
            if event.kind.value == "add_edge":
                graph.add_edge(event.u, event.v)
            else:
                graph.remove_edge(event.u, event.v)
        if stale is None:
            stale = louvain(graph, seed=4)
        periodic = louvain(graph, seed=4)
        live = clusterer.snapshot().merged_small_clusters(min_size=3)
        streaming_f1 = pairwise_f1(live, phase.truth)
        stale_f1 = pairwise_f1(stale, phase.truth)
        streaming_scores.append(streaming_f1)
        stale_scores.append(stale_f1)
        result.add_row(
            phase=index,
            events=len(phase.events),
            streaming_f1=round(streaming_f1, 3),
            stale_louvain_f1=round(stale_f1, 3),
            periodic_louvain_f1=round(pairwise_f1(periodic, phase.truth), 3),
            reservoir_deletions=clusterer.stats.sample_deletions,
        )
    kernel_rows = _kernel_rows(phases)
    result.metadata["kernels"] = kernel_rows
    finish(result)
    print()
    print(render_table(kernel_rows, title="e6 kernels: unconstrained, batch 1024"))

    # Streaming holds; the stale clustering decays.
    assert min(streaming_scores) > 0.6
    assert stale_scores[-1] < 0.5 * stale_scores[0]
    # Edge deletions stay in the numpy kernel.
    by_kernel = {row["kernel"]: row for row in kernel_rows}
    assert by_kernel["numpy"]["kernel_fallback_events"] == 0
    assert by_kernel["numpy"]["sample_deletions"] > 0


def _kernel_run(kernel, phases):
    """One unconstrained pass over every phase at batch 1024; returns the
    clusterer and the ingest seconds."""
    clusterer = StreamingGraphClusterer(
        ClustererConfig(reservoir_capacity=5000, strict=False, seed=4, kernel=kernel)
    )
    events = [(e.kind, e.u, e.v) for phase in phases for e in phase.events]
    start = time.perf_counter()
    clusterer.process(events, batch_size=KERNEL_BATCH)
    return clusterer, time.perf_counter() - start


def _kernel_rows(phases):
    best = {}
    for rep in range(KERNEL_REPS):
        order = ("scalar", "numpy") if rep % 2 == 0 else ("numpy", "scalar")
        for kernel in order:
            clusterer, seconds = _kernel_run(kernel, phases)
            if seconds < best.get(kernel, (None, float("inf")))[1]:
                best[kernel] = (clusterer, seconds)
    rows = []
    for kernel in ("scalar", "numpy"):
        clusterer, seconds = best[kernel]
        rows.append(
            {
                "kernel": kernel,
                "batch": KERNEL_BATCH,
                "events": clusterer.stats.events,
                "events_per_s": round(clusterer.stats.events / seconds),
                "kernel_fallback_events": clusterer.kernel_fallback_events,
                "sample_deletions": clusterer.stats.sample_deletions,
            }
        )
    return rows
