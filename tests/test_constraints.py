"""Unit tests for the constraint policies."""

import pytest

from repro.connectivity import ComponentLabels
from repro.core import (
    CompositeConstraint,
    MaxClusterSize,
    MinClusterCount,
    Unconstrained,
)


@pytest.fixture
def two_pairs():
    """Connectivity with components {1,2}, {3,4}, and singleton 5."""
    conn = ComponentLabels()
    conn.insert_edge(1, 2)
    conn.insert_edge(3, 4)
    conn.add_vertex(5)
    return conn


class TestUnconstrained:
    def test_always_allows(self, two_pairs):
        policy = Unconstrained()
        assert policy.allows(two_pairs, 1, 3)
        assert policy.allows(two_pairs, 1, 2)

    def test_repr(self):
        assert repr(Unconstrained()) == "Unconstrained()"


class TestMaxClusterSize:
    def test_blocks_oversized_merge(self, two_pairs):
        policy = MaxClusterSize(3)
        assert not policy.allows(two_pairs, 1, 3)  # 2 + 2 > 3

    def test_allows_fitting_merge(self, two_pairs):
        policy = MaxClusterSize(3)
        assert policy.allows(two_pairs, 1, 5)  # 2 + 1 <= 3

    def test_internal_edges_always_allowed(self, two_pairs):
        policy = MaxClusterSize(1)
        assert policy.allows(two_pairs, 1, 2)  # same component already

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            MaxClusterSize(0)

    def test_repr_mentions_limit(self):
        assert "limit=7" in repr(MaxClusterSize(7))


class TestMinClusterCount:
    def test_blocks_merge_at_floor(self, two_pairs):
        # 3 components currently; floor of 3 forbids any merge.
        policy = MinClusterCount(3)
        assert not policy.allows(two_pairs, 1, 3)

    def test_allows_merge_above_floor(self, two_pairs):
        policy = MinClusterCount(2)
        assert policy.allows(two_pairs, 1, 3)

    def test_internal_edges_always_allowed(self, two_pairs):
        policy = MinClusterCount(10)
        assert policy.allows(two_pairs, 3, 4)

    def test_minimum_validation(self):
        with pytest.raises(ValueError):
            MinClusterCount(0)


class TestComposite:
    def test_requires_all_policies(self, two_pairs):
        policy = CompositeConstraint([MaxClusterSize(10), MinClusterCount(3)])
        assert not policy.allows(two_pairs, 1, 3)  # MinClusterCount vetoes
        assert policy.allows(two_pairs, 1, 2)

    def test_empty_composite_rejected(self):
        with pytest.raises(ValueError):
            CompositeConstraint([])

    def test_repr_lists_members(self):
        policy = CompositeConstraint([Unconstrained()])
        assert "Unconstrained()" in repr(policy)
