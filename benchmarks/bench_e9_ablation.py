"""E9 — ablations of the design choices DESIGN.md calls out.

(a) **Deletion handling in the reservoir** (retired). Random pairing vs.
    resample-from-graph; the comparison and the resample policy are
    gone, and EXPERIMENTS.md quotes the last table.

(b) **Dynamic connectivity.** HDT (amortized O(log² n)) vs. the
    clusterer's component labels (O(component) per split search), both
    driven directly with the same op sequences: the sample mutations of
    a sliding-window stream where every arrival eventually becomes a
    deletion, and an adversarial cycle.

Expected shape: the labels' small constants win on small components
while HDT wins on the cycle (constants in pure Python are visible — the
asymptotic gap is the point).
"""

import time
from typing import Dict, List, Tuple

from bench_common import finish
from repro.bench import ExperimentResult
from repro.connectivity import ComponentLabels, HDTConnectivity
from repro.core import ClustererConfig, SlidingWindowClusterer
from repro.streams import insert_only_stream, planted_partition


def _window_workload():
    graph = planted_partition(2000, 10, p_in=0.05, p_out=0.0005, seed=91)
    # Repeat the stream 3x so most edges get added, expired, re-added.
    events = insert_only_stream(graph.edges, seed=91)
    more = insert_only_stream(graph.edges, seed=92)
    return events + more


class _RecordingLabels(ComponentLabels):
    """Component labels that log every sampled-edge insertion/deletion,
    so a clusterer run yields the op sequence its connectivity saw."""

    def __init__(self) -> None:
        super().__init__()
        self.ops: List[Tuple[bool, int, int]] = []

    def link(self, u, v):
        self.ops.append((True, u, v))
        return super().link(u, v)

    def cut(self, u, v):
        self.ops.append((False, u, v))
        return super().cut(u, v)


def _window_ops() -> List[Tuple[bool, int, int]]:
    """The sample mutations of a sliding-window run (capacity 1500,
    window 5000): many small components, typical churn."""
    window = SlidingWindowClusterer(
        ClustererConfig(reservoir_capacity=1500, strict=False, seed=7), window=5000
    )
    recorder = window.inner._components = _RecordingLabels()
    window.process(_window_workload())
    return recorder.ops


def _cycle_ops(n: int = 3000, churn: int = 1000) -> List[Tuple[bool, int, int]]:
    """Adversarial for label search: an n-cycle with single-edge
    delete/re-insert churn. Deleting a cycle edge leaves a Hamiltonian
    path, so the split search costs O(n) while HDT pays O(log² n)."""
    import random

    ring = [(i, (i + 1) % n) for i in range(n)]
    rng = random.Random(5)
    ops = [(True, u, v) for u, v in ring]
    for _ in range(churn):
        u, v = ring[rng.randrange(n)]
        ops.append((False, u, v))
        ops.append((True, u, v))
    return ops


def _replay(structure, ops) -> Tuple[float, List[bool]]:
    """Apply ``ops`` to a fresh structure; (seconds, return values)."""
    insert = structure.insert_edge
    delete = structure.delete_edge
    answers = []
    start = time.perf_counter()
    for is_insert, u, v in ops:
        answers.append(insert(u, v) if is_insert else delete(u, v))
    return time.perf_counter() - start, answers


_STRUCTURES = {
    "hdt": lambda: HDTConnectivity(seed=9),
    "labels": ComponentLabels,
}


def test_e9b_connectivity_backend(benchmark):
    """HDT vs the clusterer's ComponentLabels, driven directly with the
    same op sequences (best of three timed replays each)."""
    workloads = {
        "window churn (small components)": _window_ops(),
        "cycle churn (adversarial)": _cycle_ops(),
    }
    benchmark.pedantic(
        lambda: _replay(ComponentLabels(), workloads["window churn (small components)"]),
        rounds=3,
        iterations=1,
    )

    result = ExperimentResult(
        "e9b_connectivity_backend",
        "HDT vs component labels on recorded op sequences: typical churn vs "
        "adversarial cycle",
    )
    ops_per_sec: Dict[Tuple[str, str], float] = {}
    for workload, ops in workloads.items():
        answers = {}
        for name, make in _STRUCTURES.items():
            timings = []
            for _ in range(3):
                seconds, answers[name] = _replay(make(), ops)
                timings.append(seconds)
            best = min(timings)
            ops_per_sec[workload, name] = len(ops) / best
            result.add_row(
                workload=workload,
                structure=name,
                ops=len(ops),
                ops_per_sec=round(len(ops) / best),
                us_per_op=round(best / len(ops) * 1e6, 2),
                splits=sum(
                    1 for (is_insert, _, _), split in zip(ops, answers[name])
                    if split and not is_insert
                ),
            )
        # Both structures answer every merge/split question identically.
        assert answers["hdt"] == answers["labels"]
    finish(result)

    # Typical small-component churn favours the labels' small constants;
    # on the adversarial cycle HDT's O(log² n) deletions win.
    window = "window churn (small components)"
    cycle = "cycle churn (adversarial)"
    assert ops_per_sec[window, "labels"] > ops_per_sec[window, "hdt"]
    assert ops_per_sec[cycle, "hdt"] > ops_per_sec[cycle, "labels"]
