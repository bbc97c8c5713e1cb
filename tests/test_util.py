"""Unit tests for the utility layer."""

import time

import pytest

from repro.util import (
    PhaseTimer,
    check_non_negative,
    check_positive,
    check_probability,
    child_seed,
    make_rng,
)


class TestRng:
    def test_child_seed_deterministic(self):
        assert child_seed(42, "shard", 3) == child_seed(42, "shard", 3)

    def test_child_seed_label_sensitivity(self):
        assert child_seed(42, "shard", 3) != child_seed(42, "shard", 4)
        assert child_seed(42, "a") != child_seed(43, "a")

    def test_child_seed_label_boundaries(self):
        # ("ab", "c") must differ from ("a", "bc") — labels are delimited.
        assert child_seed(1, "ab", "c") != child_seed(1, "a", "bc")

    def test_child_seed_range(self):
        seed = child_seed(99, "x")
        assert 0 <= seed < 2**63

    def test_make_rng_reproducible(self):
        assert make_rng(7).random() == make_rng(7).random()


class TestTimers:
    def test_phase_timer(self):
        pt = PhaseTimer()
        with pt.phase("a"):
            time.sleep(0.005)
        with pt.phase("a"):
            pass
        pt.add("b", 1.0)
        assert pt.totals["a"] >= 0.004
        assert pt.total == pytest.approx(pt.totals["a"] + 1.0)


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    def test_check_non_negative(self):
        check_non_negative("x", 0)
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_check_probability(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ValueError):
            check_probability("p", -0.1)
