"""Unit tests for ClustererConfig validation."""

import pytest

from repro.core import ClustererConfig, MaxClusterSize


class TestValidation:
    def test_defaults_are_valid(self):
        config = ClustererConfig(reservoir_capacity=100)
        assert config.kernel == "scalar"
        assert config.track_graph is True

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ClustererConfig(reservoir_capacity=0)

    def test_constraint_type_checked(self):
        with pytest.raises(TypeError, match="ConstraintPolicy"):
            ClustererConfig(reservoir_capacity=10, constraint="max_size_5")

    def test_strict_requires_tracking(self):
        with pytest.raises(ValueError, match="strict"):
            ClustererConfig(reservoir_capacity=10, track_graph=False)

    def test_lean_mode_is_expressible(self):
        config = ClustererConfig(reservoir_capacity=10, track_graph=False, strict=False)
        assert config.track_graph is False

    def test_constraint_instance_accepted(self):
        config = ClustererConfig(reservoir_capacity=10, constraint=MaxClusterSize(5))
        assert config.constraint.limit == 5
