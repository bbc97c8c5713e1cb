"""Tests for the supervisor policy, stable shard routing and the
stream-kill fault (worker faults run in tests/test_pipeline.py)."""

import pytest

from repro.core import SupervisorConfig
from repro.core.sharded import _shard_of, _stable_vertex_key
from repro.util.faults import SimulatedCrash, kill_at_event


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(timeout=0)
        with pytest.raises(ValueError):
            SupervisorConfig(max_attempts=0)
        with pytest.raises(ValueError):
            SupervisorConfig(backoff_factor=0.5)

    def test_backoff_schedule(self):
        sup = SupervisorConfig(backoff=0.1, backoff_factor=2.0)
        assert sup.delay_before(1) == 0.0
        assert sup.delay_before(2) == pytest.approx(0.1)
        assert sup.delay_before(3) == pytest.approx(0.2)
        assert sup.delay_before(4) == pytest.approx(0.4)


class TestStableSharding:
    def test_int_keys_are_identity(self):
        assert _stable_vertex_key(42) == 42
        assert _stable_vertex_key(-7) == -7

    def test_bool_is_not_treated_as_int_surrogate(self):
        # bool subclasses int; routing must still be deterministic and
        # distinct from the strings "True"/"False".
        assert _stable_vertex_key(True) == _stable_vertex_key(True)

    def test_string_keys_stable_across_processes(self):
        """Shard routing for non-int ids must not depend on
        PYTHONHASHSEED (i.e. never falls back to builtin hash)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "from repro.core.sharded import _shard_of;"
            "print([_shard_of((f'u{i}', f'v{i}'), 8) for i in range(64)])"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")

        def run(hashseed):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            ).stdout

        assert run("1") == run("2")

    def test_mixed_types_spread_over_shards(self):
        shards = {
            _shard_of((f"user-{i}", i * 31), 8) for i in range(200)
        }
        assert len(shards) == 8


class TestKillAtEvent:
    def test_yields_prefix_then_raises(self):
        it = kill_at_event(range(10), 3)
        assert [next(it) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(SimulatedCrash, match="event 3"):
            next(it)

    def test_short_stream_never_faults(self):
        assert list(kill_at_event(range(3), 10)) == [0, 1, 2]

    def test_custom_action_runs_instead(self):
        fired = []
        it = kill_at_event(range(5), 2, action=lambda: fired.append(True))
        with pytest.raises(SimulatedCrash):
            list(it)
        assert fired == [True]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            list(kill_at_event(range(3), -1))
