"""Fast checks of servebench itself: ``pytest benchmarks/servebench``.

Every workload runs end to end at a tiny size (sizes are ``Workload``
fields, replaced here), against real ``repro serve`` subprocesses.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time

import numpy as np
import pytest

import run
import workloads as W
from traced_serve import Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "ingest_numpy": dict(frame_events=256, warmup=2, round_frames=2, rounds=3),
    "churn_scalar": dict(frame_events=128, warmup=4, deletes=20, round_frames=2, rounds=4,
                         checkpoint_every=900),
    "churn_numpy": dict(frame_events=128, warmup=4, round_frames=1, rounds=4),
    "read_mix_scalar": dict(frame_events=128, round_frames=10, rate=20_000.0),
}


def tiny(name: str) -> W.Workload:
    return dataclasses.replace(W.WORKLOADS[name], **TINY[name])


@pytest.fixture(autouse=True)
def scratch_dirs(tmp_path, monkeypatch):
    """Keep caches out of the repository; tiny graphs and fewer
    MEMBERSHIP rounds; undo the CPU pinning of ``run.main``."""
    monkeypatch.setattr(W, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(W, "VERTICES", 400)
    monkeypatch.setattr(W, "COMMUNITIES", 4)
    monkeypatch.setattr(W, "CAPACITY", 100)
    monkeypatch.setattr(W, "QUERY_ROUNDS", 4)
    cpus = os.sched_getaffinity(0)
    yield tmp_path
    os.sched_setaffinity(0, cpus)


def test_generator_is_deterministic_and_unique():
    w = tiny("ingest_numpy")
    first = W.generate(w, 3)
    again = W.generate(w, 3)
    other = W.generate(w, 4)
    assert first[0] is None
    assert np.array_equal(first[1], again[1]) and np.array_equal(first[2], again[2])
    assert not np.array_equal(first[1], other[1])
    _, us, vs = first
    assert us.size == w.frames * w.frame_events
    assert (us < vs).all()
    assert np.unique(us * W.VERTICES + vs).size == us.size


def test_churn_keeps_add_delete_readd_order():
    w = tiny("churn_scalar")
    kinds, us, vs = W.generate(w, 5)
    assert us.size == w.frames * w.frame_events
    # Insert-only warm-up, then the same number of deletions every frame.
    per_frame = kinds.reshape(w.frames, w.frame_events).sum(axis=1)
    assert per_frame.tolist() == [0] * w.warmup + [w.deletes] * (w.frames - w.warmup)
    present = set()
    seen = {}
    for kind, u, v in zip(kinds.tolist(), us.tolist(), vs.tolist()):
        edge = (u, v)
        history = seen.setdefault(edge, [])
        history.append(kind)
        if kind == 0:
            assert edge not in present
            present.add(edge)
        else:
            assert edge in present
            present.remove(edge)
    assert {tuple(h) for h in seen.values()} == {(0,), (0, 1), (0, 1, 0)}
    assert len(present) == sum(h[-1] == 0 for h in seen.values())


def test_one_frame_per_batch_then_probes():
    for name in ("ingest_numpy", "churn_scalar"):
        w = tiny(name)
        kinds, us, vs = W.generate(w, 1)
        frames, probes = W.encode_frames(w, kinds, us, vs)
        assert len(frames) == w.frames
        assert len(probes) == 1 + w.rounds + w.query_rounds + W.SNAPSHOT_ROUNDS
        # Insert-only frames travel columnar (codec v3), the rest as v2.
        versions = [frame[0] for frame in frames]
        assert versions[:w.warmup] == [3] * w.warmup
        assert set(versions[w.warmup:]) == ({3} if kinds is None else {2})


def test_metric_names_and_benchmark_json():
    spec = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    catalogs = (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER))
    for key, catalog in catalogs:
        assert [m["name"] for m in spec[key]] == list(catalog)
        for metric in spec[key]:
            assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
            assert (metric["unit"], metric["better"]) == catalog[metric["name"]]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in W.WORKLOADS.values()
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert spec["run_seconds"] == run.RUN_SECONDS


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def outer(depth):
        time.sleep(0.01)
        wrapped_leaf()
        if depth:
            wrapped_outer(depth - 1)

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_outer = tracer.wrap("outer", outer)
    wrapped_outer(1)
    layers = tracer.layers()
    assert layers["outer"]["calls"] == 2 and layers["leaf"]["calls"] == 2
    outermost = max(s[3] - s[2] for s in tracer.spans if s[1] == "outer")
    # Re-entry is counted once in busy time; self time excludes the leaves.
    assert layers["outer"]["busy_s"] == pytest.approx(outermost)
    assert layers["outer"]["self_s"] == pytest.approx(
        outermost - layers["leaf"]["busy_s"], abs=1e-9
    )


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_workload_tiny_pass(name, scratch_dirs):
    w = tiny(name)
    record = run.run_workload(w, seed=2, seconds=0, trace=False,
                              workdir=scratch_dirs / "work")
    assert record["failed"] == 0, record["problems"]
    assert record["passes"] == run.MIN_PASSES
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_oracle_counts_wrong_replies(scratch_dirs, monkeypatch):
    """Every reply after the barrier is matched with the reference: a
    reference that disagrees fails the barrier, each MEMBERSHIP round
    and each SNAPSHOT round."""
    load = W.load

    def wrong(w, seed):
        stream = load(w, seed)
        stream.expected = ["0" * 64] * len(stream.expected)
        return stream

    monkeypatch.setattr(W, "load", wrong)
    w = tiny("churn_scalar")
    record = run.run_workload(w, seed=2, seconds=0, trace=False,
                              workdir=scratch_dirs / "work")
    barriers = 1 + w.rounds
    per_pass = barriers + w.query_rounds + W.SNAPSHOT_ROUNDS
    assert len(record["problems"]) == run.MIN_PASSES * per_pass
    assert record["failed"] == run.MIN_PASSES * (
        barriers + w.query_rounds + W.SNAPSHOT_ROUNDS * record["events_per_pass"]
    )


def test_seconds_is_the_benchmark_run_length():
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--seed", "1", "--seconds", str(run.RUN_SECONDS + 1)])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_match_benchmark_json(trace, scratch_dirs, monkeypatch, capsys):
    monkeypatch.setitem(W.WORKLOADS, "churn_scalar", tiny("churn_scalar"))
    monkeypatch.setattr(run, "RUN_SECONDS", 0)
    out = scratch_dirs / "results" / "runs.jsonl"
    out.parent.mkdir()
    code = run.main(["--workload", "churn_scalar", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace), "--out", str(out)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert [line.split()[0] for line in lines[:-1]] == names
    assert list(result["metrics"]) == names
    assert json.loads(out.read_text())["workload"] == "churn_scalar"
    # The trace copy lands beside --out, never in the committed baseline.
    assert (out.parent / "trace_churn_scalar.json").exists() == bool(trace)
