"""Unit tests for the Partition type."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.quality import Partition
from repro.serve.protocol import render_snapshot


class TestConstruction:
    def test_from_labels(self):
        p = Partition({1: "a", 2: "a", 3: "b"})
        assert p.num_clusters == 2
        assert p.same_cluster(1, 2)
        assert not p.same_cluster(1, 3)

    def test_from_clusters(self):
        p = Partition.from_clusters([{1, 2}, {3}])
        assert p.num_vertices == 3
        assert p.members(p.label_of(1)) == {1, 2}

    def test_from_clusters_rejects_overlap(self):
        with pytest.raises(ValueError, match="multiple clusters"):
            Partition.from_clusters([{1, 2}, {2, 3}])

    def test_singletons(self):
        p = Partition.singletons([1, 2, 3])
        assert p.num_clusters == 3

    def test_empty(self):
        p = Partition({})
        assert p.num_clusters == 0
        assert p.max_cluster_size == 0
        assert p.sizes() == []


class TestQueries:
    def test_label_of_unknown_raises(self):
        with pytest.raises(KeyError):
            Partition({1: 0}).label_of(2)

    def test_get_with_default(self):
        p = Partition({1: 0})
        assert p.get(2, "missing") == "missing"

    def test_clusters_sorted_by_size(self):
        p = Partition.from_clusters([{1}, {2, 3, 4}, {5, 6}])
        sizes = [len(c) for c in p.clusters()]
        assert sizes == [3, 2, 1]

    def test_sizes_descending(self):
        p = Partition.from_clusters([{1}, {2, 3, 4}, {5, 6}])
        assert p.sizes() == [3, 2, 1]

    def test_contains_and_len(self):
        p = Partition({1: 0, 2: 0})
        assert 1 in p and 3 not in p
        assert len(p) == 2

    def test_structural_equality_ignores_label_names(self):
        a = Partition({1: "x", 2: "x", 3: "y"})
        b = Partition({1: 7, 2: 7, 3: 9})
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_different_grouping(self):
        assert Partition({1: 0, 2: 0}) != Partition({1: 0, 2: 1})

    def test_inequality_on_different_vertex_sets(self):
        assert Partition({1: 0}) != Partition({2: 0})


class TestTransformations:
    def test_normalized_labels_dense_by_size(self):
        p = Partition.from_clusters([{9}, {1, 2, 3}, {4, 5}]).normalized()
        assert p.label_of(1) == 0  # biggest cluster gets label 0
        assert p.label_of(4) == 1
        assert p.label_of(9) == 2

    def test_restricted_to(self):
        p = Partition({1: 0, 2: 0, 3: 1})
        r = p.restricted_to([1, 3, 99])
        assert set(r.vertices()) == {1, 3}

    def test_merged_small_clusters(self):
        p = Partition.from_clusters([{1, 2, 3}, {4}, {5}])
        merged = p.merged_small_clusters(min_size=2)
        assert merged.num_clusters == 2
        assert merged.same_cluster(4, 5)

    def test_repr(self):
        assert "num_clusters=1" in repr(Partition({1: 0}))


# ---------------------------------------------------------------------------
# Canonical order against its direct definition
# ---------------------------------------------------------------------------
def _reference_clusters(partition):
    """The canonical cluster order by definition: whole clusters sorted
    by decreasing size, then by their members' sorted ``repr`` lists.
    ``Partition`` computes the same order in one vectorized pass."""
    groups = {}
    for vertex, label in partition.labels().items():
        groups.setdefault(label, set()).add(vertex)
    return sorted(
        (frozenset(members) for members in groups.values()),
        key=lambda members: (-len(members), sorted(map(repr, members))),
    )


def _reference_render(partition):
    return "".join(
        f"{vertex}\t{index}\n"
        for index, members in enumerate(_reference_clusters(partition))
        for vertex in sorted(members, key=repr)
    )


_texts = st.text(st.sampled_from(list("ab'\"\\\t\n é€漢😀")), max_size=4)
_ints = st.integers(-30, 300)
_tuples = st.tuples(st.integers(-3, 12), _texts)
_label_values = st.one_of(st.integers(0, 5), st.sampled_from(["a", "b", "_rest"]), st.none())


@st.composite
def _partitions(draw):
    vertex = draw(st.sampled_from([_ints, _texts, _tuples, st.one_of(_ints, _texts, _tuples)]))
    vertices = draw(st.lists(vertex, unique=True, max_size=40))
    if draw(st.booleans()):
        return Partition.singletons(vertices)
    values = draw(st.lists(_label_values, min_size=len(vertices), max_size=len(vertices)))
    return Partition(dict(zip(vertices, values)))


@settings(max_examples=300, deadline=None)
@given(partition=_partitions())
@example(partition=Partition({}))
def test_canonical_order_matches_reference(partition):
    clusters = _reference_clusters(partition)
    assert render_snapshot(partition) == _reference_render(partition)
    assert partition.clusters() == clusters
    assert partition.sizes() == sorted(map(len, clusters), reverse=True)
    assert partition.num_clusters == len(clusters)
    assert partition.max_cluster_size == max(map(len, clusters), default=0)
    assert partition.normalized().labels() == {
        vertex: index for index, members in enumerate(clusters) for vertex in members
    }


def test_render_golden_size_ties():
    # Three size-2 clusters tie; their smallest member reprs are "a'"
    # (double-quoted), "10" and "30", so repr order puts the str
    # cluster first, where str order would put it after "10". Members
    # sort by repr too: "10" before "2", "30" before "9".
    partition = Partition({
        10: "x", 2: "x",
        "b": "y", "a'": "y",
        9: 8, 30: 8,
        (1, "z"): None,
        -3: 7,
        11: 0, 1: 0, 100: 0,
    })
    assert render_snapshot(partition) == (
        "1\t0\n100\t0\n11\t0\n"
        "a'\t1\nb\t1\n"
        "10\t2\n2\t2\n"
        "30\t3\n9\t3\n"
        "(1, 'z')\t4\n"
        "-3\t5\n"
    )
