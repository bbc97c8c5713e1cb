"""E8 — effect of the admission constraints (figure reconstruction).

The paper's reservoir maintains "desired properties like bounding number
of clusters or cluster-sizes". This experiment varies the constraint on
a fixed workload and reports cluster-shape and quality consequences:

* ``MaxClusterSize`` sweep — the bound caps the largest cluster (hard
  invariant) and, set near the true community size, *improves* quality
  by rejecting the bridge edges that cause giant merges;
* ``MinClusterCount`` — keeps at least k clusters alive;
* unconstrained — the baseline showing the giant-merge failure.

Expected shape: unconstrained has a giant cluster and poor NMI; the
size bound trades a hair of coverage for large NMI gains, best when the
bound ≈ the true maximum community size (97 for amazon_like).

The quality rows run the scalar kernel one event at a time. A paired
throughput table (``metadata["throughput"]``) times the unconstrained
and ``MaxClusterSize(120)`` configurations per event
(``process(events)``) against batches of 1024, on both kernels: the
policy vetoes inside the batch kernel's sampling loop, so a constrained
stream batches as an unconstrained one does.
"""

import statistics
import time

from bench_common import dataset_events, finish, run_streaming, score_partition
from repro.bench import ExperimentResult, render_table
from repro.core import ClustererConfig, MaxClusterSize, MinClusterCount, StreamingGraphClusterer
from repro.graph import AdjacencyGraph

BOUNDS = (30, 60, 120, 240, 480)

#: Repetitions of each (per-event, batched) pair; the order alternates.
THROUGHPUT_REPS = 3
BATCH = 1024


def _events_per_second(events, capacity, constraint, kernel, batch_size):
    config = dict(reservoir_capacity=capacity, strict=False, seed=6, kernel=kernel)
    if constraint is not None:
        config["constraint"] = constraint
    clusterer = StreamingGraphClusterer(ClustererConfig(**config))
    start = time.perf_counter()
    clusterer.process(events, batch_size=batch_size)
    return len(events) / (time.perf_counter() - start)


def throughput_rows(events, capacity):
    """Per-event against batch-1024 events/s, paired and order-balanced,
    for the unconstrained and ``MaxClusterSize(120)`` configurations on
    both kernels (medians over :data:`THROUGHPUT_REPS` pairs)."""
    rows = []
    for name, constraint in (("unconstrained", None), ("MaxClusterSize(120)", MaxClusterSize(120))):
        for kernel in ("scalar", "numpy"):
            per_event, batched = [], []
            for rep in range(THROUGHPUT_REPS):
                for batch_size in (None, BATCH) if rep % 2 == 0 else (BATCH, None):
                    rate = _events_per_second(events, capacity, constraint, kernel, batch_size)
                    (per_event if batch_size is None else batched).append(rate)
            rows.append(
                dict(
                    constraint=name,
                    kernel=kernel,
                    per_event_eps=round(statistics.median(per_event)),
                    batch_1024_eps=round(statistics.median(batched)),
                    speedup=round(
                        statistics.median(b / p for b, p in zip(batched, per_event)), 2
                    ),
                )
            )
    return rows


def test_e8_constraints(benchmark):
    dataset, events = dataset_events("amazon_like")
    graph = AdjacencyGraph(dataset.edges)
    capacity = len(events) // 3

    benchmark.pedantic(
        lambda: run_streaming(events, capacity, constraint=MaxClusterSize(120), seed=6),
        rounds=3,
        iterations=1,
    )

    result = ExperimentResult(
        "e8_constraints",
        "constraint policies on amazon_like (33% reservoir)",
        metadata={"true_max_community": dataset.truth.sizes()[0]},
    )

    free = run_streaming(events, capacity, seed=6)
    row = score_partition(free.snapshot(), dataset, graph)
    result.add_row(constraint="unconstrained", vetoes=free.stats.vetoes, **row)

    for bound in BOUNDS:
        clusterer = run_streaming(
            events, capacity, constraint=MaxClusterSize(bound), seed=6
        )
        row = score_partition(clusterer.snapshot(), dataset, graph)
        result.add_row(
            constraint=f"MaxClusterSize({bound})",
            vetoes=clusterer.stats.vetoes,
            **row,
        )
        assert row["max_size"] <= bound  # the hard invariant

    floor = run_streaming(
        events, capacity, constraint=MinClusterCount(500), seed=6
    )
    row = score_partition(floor.snapshot(), dataset, graph)
    result.add_row(constraint="MinClusterCount(500)", vetoes=floor.stats.vetoes, **row)
    assert row["clusters"] >= 500
    result.metadata["throughput"] = throughput_rows(events, capacity)
    finish(result)
    print(render_table(result.metadata["throughput"], title="e8 throughput (events/s)"))

    rows = {r["constraint"]: r for r in result.rows}
    # The well-chosen bound beats unconstrained by a wide margin.
    assert rows["MaxClusterSize(120)"]["nmi"] > rows["unconstrained"]["nmi"] + 0.2
    # Too-tight bounds shred communities: quality drops again.
    assert rows["MaxClusterSize(120)"]["f1"] > rows["MaxClusterSize(30)"]["f1"]
