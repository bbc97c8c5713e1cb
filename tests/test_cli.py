"""End-to-end tests for the command-line interface."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *map(str, argv)],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture
def workload(tmp_path):
    edges = tmp_path / "graph.edges"
    truth = tmp_path / "truth.labels"
    code = main([
        "generate", "--sbm", "120", "4", "0.3", "0.002",
        "--seed", "5", "--out", str(edges), "--truth-out", str(truth),
    ])
    assert code == 0
    return edges, truth


class TestGenerate:
    def test_sbm_files_written(self, workload):
        edges, truth = workload
        assert edges.exists() and truth.exists()
        assert len(edges.read_text().splitlines()) > 100
        assert len(truth.read_text().splitlines()) == 120

    def test_lfr(self, tmp_path):
        out = tmp_path / "lfr.edges"
        assert main(["generate", "--lfr", "300", "0.1", "--out", str(out)]) == 0
        assert out.exists()

    def test_rmat_has_no_truth(self, tmp_path, capsys):
        out = tmp_path / "rmat.edges"
        truth = tmp_path / "rmat.labels"
        code = main([
            "generate", "--rmat", "7", "300",
            "--out", str(out), "--truth-out", str(truth),
        ])
        assert code == 0
        assert not truth.exists()
        assert "no ground truth" in capsys.readouterr().err

    def test_dataset(self, tmp_path):
        out = tmp_path / "karate.edges"
        assert main(["generate", "--dataset", "karate", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 78


class TestCluster:
    def test_cluster_writes_labels(self, workload, tmp_path, capsys):
        edges, _ = workload
        labels = tmp_path / "found.labels"
        code = main([
            "cluster", str(edges), "--capacity", "2000",
            "--max-cluster-size", "40", "--out", str(labels), "--seed", "5",
        ])
        assert code == 0
        lines = labels.read_text().splitlines()
        assert len(lines) == 120
        assert "clusters" in capsys.readouterr().err

    def test_cluster_to_stdout(self, workload, capsys):
        edges, _ = workload
        assert main(["cluster", str(edges), "--capacity", "50"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 120

    def test_event_stream_input(self, tmp_path):
        stream = tmp_path / "stream.events"
        stream.write_text("+ 1 2\n+ 2 3\n- 1 2\n")
        labels = tmp_path / "labels"
        code = main([
            "cluster", str(stream), "--events",
            "--capacity", "10", "--out", str(labels),
        ])
        assert code == 0
        assert len(labels.read_text().splitlines()) == 3

    def test_lean_flag(self, workload, tmp_path):
        edges, _ = workload
        labels = tmp_path / "lean.labels"
        code = main([
            "cluster", str(edges), "--capacity", "100",
            "--lean", "--out", str(labels),
        ])
        assert code == 0

    def test_min_size_folding(self, workload, tmp_path):
        edges, _ = workload
        a, b = tmp_path / "a", tmp_path / "b"
        main(["cluster", str(edges), "--capacity", "200", "--out", str(a), "--seed", "1"])
        main(["cluster", str(edges), "--capacity", "200", "--out", str(b),
              "--seed", "1", "--min-size", "5"])
        labels_a = {line.split("\t")[1] for line in a.read_text().splitlines()}
        labels_b = {line.split("\t")[1] for line in b.read_text().splitlines()}
        assert len(labels_b) <= len(labels_a)

    @pytest.mark.parametrize("flag,value", [
        ("--batch-size", "0"),
        ("--batch-size", "-1"),
        ("--workers", "0"),
    ])
    def test_nonpositive_sizes_rejected(self, workload, flag, value):
        edges, _ = workload
        result = run_cli(
            "cluster", str(edges), "--capacity", "100", flag, value,
        )
        assert result.returncode == 2
        assert "must be >= 1" in result.stderr

    def test_scalar_kernel_is_the_default(self, workload, tmp_path):
        # `--kernel scalar` must be byte-identical to not passing the
        # flag at all: the numpy kernel is strictly opt-in.
        edges, _ = workload
        default, explicit = tmp_path / "default", tmp_path / "explicit"
        args = ["cluster", str(edges), "--capacity", "200", "--seed", "5"]
        assert main([*args, "--out", str(default)]) == 0
        assert main([*args, "--kernel", "scalar", "--out", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()

    def test_numpy_kernel_deterministic_labels(self, workload, tmp_path,
                                               capsys):
        edges, _ = workload
        a, b = tmp_path / "a", tmp_path / "b"
        args = [
            "cluster", str(edges), "--capacity", "200", "--seed", "5",
            "--kernel", "numpy", "--batch-size", "512",
        ]
        assert main([*args, "--out", str(a)]) == 0
        assert "clusters" in capsys.readouterr().err
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_kernel_mismatch_on_resume_refused(self, workload, tmp_path,
                                               capsys):
        edges, _ = workload
        ckpt = tmp_path / "run.ckpt"
        assert main([
            "cluster", str(edges), "--capacity", "200", "--seed", "5",
            "--kernel", "numpy", "--checkpoint", str(ckpt),
        ]) == 0
        capsys.readouterr()
        code = main([
            "cluster", str(edges), "--capacity", "200", "--seed", "5",
            "--checkpoint", str(ckpt), "--resume",
        ])
        assert code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_numpy_checkpoint_resume_is_identical(self, workload, tmp_path,
                                                  capsys):
        edges, _ = workload
        full = tmp_path / "full.labels"
        args = [
            "cluster", str(edges), "--capacity", "200", "--seed", "5",
            "--kernel", "numpy",
        ]
        assert main([*args, "--out", str(full)]) == 0
        ckpt = tmp_path / "run.ckpt"
        assert main([*args, "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        resumed = tmp_path / "resumed.labels"
        assert main([*args, "--out", str(resumed), "--checkpoint", str(ckpt),
                     "--resume"]) == 0
        assert "resumed from" in capsys.readouterr().err
        assert resumed.read_text() == full.read_text()


class TestParallelModes:
    def test_all_modes_produce_identical_labels(self, workload, tmp_path):
        edges, _ = workload
        outputs = {}
        for mode in ("inline", "pipeline"):
            out = tmp_path / f"{mode}.labels"
            code = main([
                "cluster", str(edges), "--capacity", "200", "--seed", "5",
                "--parallel", mode, "--workers", "3", "--out", str(out),
            ])
            assert code == 0
            outputs[mode] = out.read_text()
        assert outputs["inline"] == outputs["pipeline"]

    def test_sharded_summary_line(self, workload, capsys):
        edges, _ = workload
        code = main([
            "cluster", str(edges), "--capacity", "100",
            "--parallel", "inline", "--workers", "2",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "across 2 shards" in err and "reservoir" in err

    def test_pipeline_checkpoint_kill_and_resume(self, workload, tmp_path):
        edges, _ = workload
        ckpt = tmp_path / "run.ckpt"
        reference = tmp_path / "ref.labels"
        args = ["cluster", edges, "--capacity", "300", "--seed", "5",
                "--parallel", "pipeline", "--workers", "3"]
        assert run_cli(*args, "--out", reference).returncode == 0

        crashed = run_cli(*args, "--checkpoint", ckpt, "--checkpoint-every",
                          "100", "--inject-kill-after", "350")
        assert crashed.returncode == 3
        assert ckpt.exists()

        resumed = tmp_path / "resumed.labels"
        done = run_cli(*args, "--checkpoint", ckpt, "--resume",
                       "--out", resumed)
        assert done.returncode == 0
        assert "resumed from" in done.stderr
        assert resumed.read_text() == reference.read_text()

    def test_pipeline_checkpoint_resumes_inline_and_vice_versa(
        self, workload, tmp_path
    ):
        # The checkpoint format is shared: a pipeline checkpoint resumes
        # under --parallel inline (and the labels stay identical).
        edges, _ = workload
        ckpt = tmp_path / "run.ckpt"
        reference = tmp_path / "ref.labels"
        base = ["cluster", edges, "--capacity", "300", "--seed", "5",
                "--workers", "3"]
        assert run_cli(*base, "--parallel", "inline",
                       "--out", reference).returncode == 0
        crashed = run_cli(*base, "--parallel", "pipeline", "--checkpoint",
                          ckpt, "--checkpoint-every", "100",
                          "--inject-kill-after", "250")
        assert crashed.returncode == 3
        resumed = tmp_path / "resumed.labels"
        done = run_cli(*base, "--parallel", "inline", "--checkpoint", ckpt,
                       "--resume", "--out", resumed)
        assert done.returncode == 0
        assert resumed.read_text() == reference.read_text()

    def test_workers_mismatch_on_resume_refused(self, workload, tmp_path,
                                                capsys):
        edges, _ = workload
        ckpt = tmp_path / "run.ckpt"
        assert main([
            "cluster", str(edges), "--capacity", "200", "--seed", "5",
            "--parallel", "pipeline", "--workers", "3",
            "--checkpoint", str(ckpt),
        ]) == 0
        capsys.readouterr()
        code = main([
            "cluster", str(edges), "--capacity", "200", "--seed", "5",
            "--parallel", "pipeline", "--workers", "2",
            "--checkpoint", str(ckpt), "--resume",
        ])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_sharded_checkpoint_without_parallel_refused(self, workload,
                                                         tmp_path, capsys):
        edges, _ = workload
        ckpt = tmp_path / "run.ckpt"
        assert main([
            "cluster", str(edges), "--capacity", "200", "--seed", "5",
            "--parallel", "inline", "--workers", "2",
            "--checkpoint", str(ckpt),
        ]) == 0
        capsys.readouterr()
        code = main([
            "cluster", str(edges), "--capacity", "200", "--seed", "5",
            "--checkpoint", str(ckpt), "--resume",
        ])
        assert code == 2
        assert "--parallel" in capsys.readouterr().err

    def test_pipeline_metrics_snapshot(self, workload, tmp_path, capsys):
        import json

        edges, _ = workload
        metrics = tmp_path / "metrics.json"
        code = main([
            "cluster", str(edges), "--capacity", "200", "--seed", "5",
            "--parallel", "pipeline", "--workers", "2",
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        capsys.readouterr()
        snapshot = json.loads(metrics.read_text())
        assert snapshot["pipeline.frames_sent"]["value"] >= 1
        assert snapshot["clusterer.events"]["value"] > 0


class TestScore:
    def test_full_scoring(self, workload, tmp_path, capsys):
        edges, truth = workload
        labels = tmp_path / "found.labels"
        main([
            "cluster", str(edges), "--capacity", "2000",
            "--max-cluster-size", "40", "--out", str(labels), "--seed", "5",
        ])
        capsys.readouterr()
        code = main([
            "score", str(labels), "--graph", str(edges), "--truth", str(truth),
        ])
        assert code == 0
        output = capsys.readouterr().out
        for metric in ("modularity", "avg_conductance", "nmi", "ari", "pairwise_f1"):
            assert metric in output

    def test_perfect_score_against_itself(self, workload, capsys):
        _, truth = workload
        assert main(["score", str(truth), "--truth", str(truth)]) == 0
        output = capsys.readouterr().out
        assert "nmi: 1.0000" in output
        assert "ari: 1.0000" in output

    def test_malformed_labels_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.labels"
        bad.write_text("1 2 3\n")
        assert main(["score", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "expected" in err
        assert "Traceback" not in err


class TestErrorHandling:
    def test_malformed_edge_list_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("1 2\njunk\n")
        assert main(["cluster", str(bad), "--capacity", "10"]) == 2
        err = capsys.readouterr().err
        assert "bad.edges:2" in err and "Traceback" not in err

    def test_skip_malformed_tolerates_bad_lines(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("1 2\njunk\n2 3\n")
        labels = tmp_path / "out.labels"
        code = main([
            "cluster", str(bad), "--capacity", "10",
            "--skip-malformed", "--out", str(labels),
        ])
        assert code == 0
        assert "skipped 1 malformed" in capsys.readouterr().err
        assert len(labels.read_text().splitlines()) == 3

    def test_malformed_event_stream_exit_nonzero(self, tmp_path, capsys):
        stream = tmp_path / "s.events"
        stream.write_text("+ 1 2\n* nonsense\n")
        assert main(["cluster", str(stream), "--events", "--capacity", "10"]) == 2
        assert "s.events:2" in capsys.readouterr().err

    def test_skip_malformed_count_on_batched_event_path(self, tmp_path, capsys):
        # The default batch size routes --events input through the raw
        # reader; the skipped-line count must still be exact.
        stream = tmp_path / "s.events"
        stream.write_text("+ 1 2\n* nonsense\n+ 2 3\n+ 4 4\n+ 3 4\n")
        labels = tmp_path / "out.labels"
        code = main([
            "cluster", str(stream), "--events", "--capacity", "10",
            "--skip-malformed", "--out", str(labels),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "skipped 2 malformed input lines" in err  # bad op + self-loop
        assert len(labels.read_text().splitlines()) == 4

    def test_broken_pipe_exits_cleanly(self, workload, monkeypatch):
        # `repro cluster ... | head` closes stdout early; the CLI must
        # treat that as a normal end of the run, not a traceback.
        edges, _ = workload

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["cluster", str(edges), "--capacity", "50"]) == 0


class TestObservability:
    def test_metrics_out_writes_snapshot(self, workload, tmp_path, capsys):
        import json

        edges, _ = workload
        metrics = tmp_path / "metrics.json"
        ckpt = tmp_path / "run.ckpt"
        code = main([
            "cluster", str(edges), "--capacity", "500", "--seed", "5",
            "--checkpoint", str(ckpt), "--checkpoint-every", "100",
            "--metrics-out", str(metrics), "--out", str(tmp_path / "labels"),
        ])
        assert code == 0
        assert "metrics written to" in capsys.readouterr().err
        snapshot = json.loads(metrics.read_text())
        events = snapshot["clusterer.events"]
        assert events["kind"] == "counter" and events["value"] > 100
        assert snapshot["clusterer.reservoir_size"]["value"] <= 500
        assert snapshot["checkpoint.saves"]["value"] >= 2
        assert snapshot["checkpoint.save_seconds"]["kind"] == "histogram"
        assert (
            snapshot["checkpoint.save_seconds"]["count"]
            == snapshot["checkpoint.saves"]["value"]
        )

    def test_progress_every_reports_to_stderr(self, workload, capsys):
        edges, _ = workload
        code = main([
            "cluster", str(edges), "--capacity", "100", "--seed", "5",
            "--progress-every", "200", "--out", os.devnull,
        ])
        assert code == 0
        progress = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("progress:")]
        assert len(progress) >= 2
        assert "ev/s" in progress[0] and "reservoir" in progress[0]
        assert "clusters" in progress[0]

    def test_metrics_flag_does_not_leak_into_later_runs(self, workload,
                                                        tmp_path):
        from repro import obs

        edges, _ = workload
        metrics = tmp_path / "metrics.json"
        assert main([
            "cluster", str(edges), "--capacity", "100",
            "--metrics-out", str(metrics), "--out", os.devnull,
        ]) == 0
        assert not obs.is_enabled()


class TestCheckpointResume:
    def test_checkpoint_written_and_resume_is_identical(self, workload, tmp_path,
                                                        capsys):
        edges, _ = workload
        ckpt = tmp_path / "run.ckpt"
        full = tmp_path / "full.labels"
        args = ["cluster", str(edges), "--capacity", "500", "--seed", "5"]
        assert main([*args, "--out", str(full)]) == 0
        # Same run with checkpointing enabled: same labels, checkpoint on disk.
        ck_out = tmp_path / "ck.labels"
        assert main([*args, "--out", str(ck_out), "--checkpoint", str(ckpt),
                     "--checkpoint-every", "100"]) == 0
        assert ckpt.exists()
        assert ck_out.read_text() == full.read_text()
        # Resuming from the final checkpoint replays an empty tail.
        resumed = tmp_path / "resumed.labels"
        assert main([*args, "--out", str(resumed), "--checkpoint", str(ckpt),
                     "--resume"]) == 0
        assert "resumed from" in capsys.readouterr().err
        assert resumed.read_text() == full.read_text()

    @pytest.mark.parametrize("backend", ["hdt", "lazy"])
    def test_legacy_backend_checkpoint_resumes(self, workload, tmp_path, capsys,
                                               backend):
        from repro.persist import read_container, write_container

        edges, _ = workload
        args = ["cluster", edges, "--capacity", "300", "--seed", "5",
                "--max-cluster-size", "30"]
        full = tmp_path / "full.labels"
        assert main([*map(str, args), "--out", str(full)]) == 0
        ckpt = tmp_path / "run.ckpt"
        crashed = run_cli(*args, "--checkpoint", ckpt, "--checkpoint-every",
                          "100", "--inject-kill-after", "350")
        assert crashed.returncode == 3
        # Rewrite the mid-stream checkpoint as an older release wrote it.
        payload = read_container(ckpt)
        vars(payload["state"]["config"])["connectivity_backend"] = backend
        payload["state"]["conn_dirty"] = True
        write_container(ckpt, payload)
        capsys.readouterr()

        resumed = tmp_path / "resumed.labels"
        assert main([*map(str, args), "--checkpoint", str(ckpt), "--resume",
                     "--out", str(resumed)]) == 0
        assert "resumed from" in capsys.readouterr().err
        assert resumed.read_text() == full.read_text()
        state = read_container(ckpt)["state"]
        assert "connectivity_backend" not in vars(state["config"])
        assert "conn_dirty" not in state

    def test_corrupted_checkpoint_is_refused(self, workload, tmp_path, capsys):
        from repro.util.faults import corrupt_checkpoint

        edges, _ = workload
        ckpt = tmp_path / "run.ckpt"
        args = ["cluster", str(edges), "--capacity", "200", "--seed", "5"]
        assert main([*args, "--checkpoint", str(ckpt), "--out",
                     str(tmp_path / "a")]) == 0
        capsys.readouterr()
        corrupt_checkpoint(ckpt)
        code = main([*args, "--checkpoint", str(ckpt), "--resume",
                     "--out", str(tmp_path / "b")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "checksum" in err

    def test_resume_with_conflicting_flags_is_refused(self, workload, tmp_path,
                                                      capsys):
        edges, _ = workload
        ckpt = tmp_path / "run.ckpt"
        base = ["cluster", str(edges), "--seed", "5", "--checkpoint", str(ckpt)]
        assert main([*base, "--capacity", "500", "--out",
                     str(tmp_path / "a")]) == 0
        capsys.readouterr()
        code = main([*base, "--capacity", "600", "--seed", "7", "--resume",
                     "--out", str(tmp_path / "b")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "--capacity" in err and "500" in err and "600" in err
        assert "--seed" in err and "--backend" not in err
        assert not (tmp_path / "b").exists()  # refused before any work

    def test_resume_with_matching_flags_is_accepted(self, workload, tmp_path,
                                                    capsys):
        edges, _ = workload
        ckpt = tmp_path / "run.ckpt"
        base = ["cluster", str(edges), "--capacity", "500", "--seed", "5",
                "--checkpoint", str(ckpt)]
        assert main([*base, "--out", str(tmp_path / "a")]) == 0
        assert main([*base, "--resume", "--out", str(tmp_path / "b")]) == 0
        assert "resumed from" in capsys.readouterr().err

    def test_resume_refuses_constraint_mismatch(self, workload, tmp_path,
                                                capsys):
        edges, _ = workload
        ckpt = tmp_path / "run.ckpt"
        base = ["cluster", str(edges), "--capacity", "500", "--seed", "5",
                "--checkpoint", str(ckpt)]
        assert main([*base, "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        code = main([*base, "--max-cluster-size", "40", "--resume",
                     "--out", str(tmp_path / "b")])
        assert code == 2
        assert "--max-cluster-size" in capsys.readouterr().err

    def test_kill_and_resume_subprocess(self, workload, tmp_path):
        """Hard-kill a CLI run mid-stream (os._exit), then resume from the
        checkpoint: the labels must score identically to an uninterrupted
        run. This is the crash-recovery path CI smokes as well."""
        edges, truth = workload
        ckpt = tmp_path / "run.ckpt"
        full = tmp_path / "full.labels"
        args = ["cluster", edges, "--capacity", "500", "--seed", "5"]
        assert run_cli(*args, "--out", full).returncode == 0

        crashed = run_cli(*args, "--checkpoint", ckpt, "--checkpoint-every", "100",
                          "--inject-kill-after", "450")
        assert crashed.returncode == 3  # the injected hard exit
        assert ckpt.exists()

        resumed = tmp_path / "resumed.labels"
        done = run_cli(*args, "--checkpoint", ckpt, "--resume", "--out", resumed)
        assert done.returncode == 0
        assert "resumed from" in done.stderr and "at event 400" in done.stderr

        score = run_cli("score", resumed, "--truth", full)
        assert score.returncode == 0
        assert "nmi: 1.0000" in score.stdout
        assert "ari: 1.0000" in score.stdout


class TestInterrupt:
    """Ctrl-C must exit 130 (128 + SIGINT) without a traceback."""

    def _interrupt(self, *extra, warmup=1.5):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "cluster", "/dev/stdin",
                "--capacity", "100", *map(str, extra),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            # Feed a few edges but keep stdin open so the run blocks
            # mid-stream when the signal lands.
            proc.stdin.write("1 2\n2 3\n3 4\n")
            proc.stdin.flush()
            time.sleep(warmup)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        return proc.returncode, err

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
    def test_sigint_exits_130(self):
        code, err = self._interrupt()
        assert code == 130, err
        assert "interrupted" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
    def test_sigint_reaps_pipeline_workers(self):
        # The KeyboardInterrupt path still runs the finally block that
        # closes the worker pool, so the process exits promptly instead
        # of hanging on orphaned children.
        code, err = self._interrupt(
            "--parallel", "pipeline", "--workers", "2", warmup=4.0
        )
        assert code == 130, err
        assert "Traceback" not in err
