"""Unit tests for the Partition type."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ClustererConfig, StreamingGraphClusterer
from repro.quality import Partition
from repro.serve.protocol import render_snapshot
from repro.streams import EventKind


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

    def test_a_tuple_of_pairs_is_a_mapping(self):
        assert Partition(((1, "a"), (2, "a"))).labels() == {1: "a", 2: "a"}

    @pytest.mark.parametrize("columns", [
        (np.array([1, 2], dtype=np.int32), np.array([0, 0], dtype=np.int64)),
        (np.array([1, 2], dtype=np.int64), np.array([0, 0], dtype=np.int32)),
        (np.array([1, 2], dtype=np.int64), np.array([0], dtype=np.int64)),
    ])
    def test_rejects_malformed_columns(self, columns):
        with pytest.raises(ValueError, match="columns"):
            Partition(columns=columns)


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
# Int vertices rank by a numeric key when they fit in int64: the whole
# range, the digit-count boundaries and both limits. Ints beyond int64
# and bools take the repr sort.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_DIGIT_BOUNDARIES = list(dict.fromkeys(
    [0, 9, -9, 10, -10, 99, -99, 100, -100, _INT64_MIN, _INT64_MAX]
    + [sign * (10**k + step) for k in range(1, 19) for step in (-1, 0, 1) for sign in (1, -1)]
))
_int64s = st.one_of(st.integers(_INT64_MIN, _INT64_MAX), st.sampled_from(_DIGIT_BOUNDARIES))
_huge_ints = st.one_of(st.integers(2**63, 2**70), st.integers(-(2**70), _INT64_MIN - 1))
# Cluster numbers as StreamingGraphClusterer.snapshot() gives them:
# component ids, and ~vid for a singleton.
_cluster_numbers = st.integers(-4, 5)


def _column_partition(vertices, numbers):
    """The partition of columns, as snapshot() builds it: the vertices
    in an int64 array when all are int64 ints, else in a list."""
    if all(type(v) is int and _INT64_MIN <= v <= _INT64_MAX for v in vertices):
        vertices = np.array(vertices, dtype=np.int64)
    return Partition(columns=(vertices, np.array(numbers, dtype=np.int64)))


@st.composite
def _partitions(draw):
    vertex = draw(st.sampled_from([
        _ints, _texts, _tuples, st.one_of(_ints, _texts, _tuples),
        _int64s, st.one_of(_int64s, _huge_ints), st.one_of(_int64s, st.booleans(), _texts),
    ]))
    vertices = draw(st.lists(vertex, unique=True, max_size=40))
    if draw(st.booleans()):
        return Partition.singletons(vertices)
    value = draw(st.sampled_from([_label_values, _cluster_numbers]))
    values = draw(st.lists(value, min_size=len(vertices), max_size=len(vertices)))
    if value is _cluster_numbers and draw(st.booleans()):
        return _column_partition(vertices, values)
    return Partition(dict(zip(vertices, values)))


@settings(max_examples=500, deadline=None)
@given(partition=_partitions())
@example(partition=Partition({}))
@example(partition=_column_partition([], []))
@example(partition=Partition.singletons(_DIGIT_BOUNDARIES))
@example(partition=_column_partition(_DIGIT_BOUNDARIES, [n % 3 for n in _DIGIT_BOUNDARIES]))
@example(partition=Partition({True: 0, 10: 0, 2**63: 1, -(2**64): 1, "9": 2}))
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


# ---------------------------------------------------------------------------
# Snapshots built from int64 columns against the label dict
# ---------------------------------------------------------------------------
# Negative labels, labels of 2**53 and above (where a float64 rounds) and
# both int64 limits.
_STREAM_LABELS = [-(2**63), -10, -1, 0, 1, 9, 10, 2**53, 2**53 + 1, 2**63 - 1]
_stream_ops = st.lists(
    st.tuples(st.integers(0, len(_STREAM_LABELS) - 1), st.integers(0, len(_STREAM_LABELS) - 1)),
    min_size=1,
    max_size=60,
)


def _toggle_events(ops, labels):
    """Ops into a raw event stream: ``(a, b)`` toggles edge {a, b}, and
    ``(a, a)`` adds vertex a, or deletes it when it has a live edge."""
    live = set()
    events = []
    for a, b in ops:
        u, v = labels[a], labels[b]
        if a == b:
            touching = {edge for edge in live if u in edge}
            kind = EventKind.DELETE_VERTEX if touching else EventKind.ADD_VERTEX
            events.append((kind, u, None))
            live -= touching
        elif frozenset((u, v)) in live:
            events.append((EventKind.DELETE_EDGE, u, v))
            live.discard(frozenset((u, v)))
        else:
            events.append((EventKind.ADD_EDGE, u, v))
            live.add(frozenset((u, v)))
    return events


def _dict_labels(clusterer):
    """The label dict snapshot()'s columns stand for: each vertex's
    component id, or ``~id`` for a singleton, in registration order."""
    id_of = clusterer.interner.id_of
    labels = {}
    for vertex in clusterer.vertices():
        cid = clusterer.cluster_id(vertex)
        labels[vertex] = ~id_of(vertex) if isinstance(cid, frozenset) else cid
    return labels


def _check_snapshot(clusterer, int_column):
    snapshot = clusterer.snapshot()
    assert isinstance(snapshot._columns[0], np.ndarray) is int_column
    labels = _dict_labels(clusterer)
    assert list(snapshot.labels().items()) == list(labels.items())
    assert snapshot == Partition(snapshot.labels()) == Partition(labels)
    text = render_snapshot(snapshot)
    assert text == _reference_render(snapshot) == _reference_render(Partition(labels))
    return text


def _run(kernel, events, midway=None):
    """Apply ``events`` in batches of 7 on ``kernel``, checking every
    snapshot; ``midway`` is a label interned with an edge halfway."""
    clusterer = StreamingGraphClusterer(
        ClustererConfig(reservoir_capacity=6, seed=5, strict=False, kernel=kernel)
    )
    int_column = True
    for start in range(0, len(events), 7):
        if midway is not None and start >= len(events) // 2:
            clusterer.apply_many([(EventKind.ADD_EDGE, midway, events[0][1])])
            int_column, midway = False, None
        clusterer.apply_many(events[start:start + 7])
        _check_snapshot(clusterer, int_column)
    restored = StreamingGraphClusterer.from_state(clusterer.get_state())
    assert _check_snapshot(restored, int_column) == render_snapshot(clusterer.snapshot())


@settings(max_examples=150, deadline=None)
@given(ops=_stream_ops, kernel=st.sampled_from(["scalar", "numpy"]))
def test_column_snapshot_equals_dict_snapshot(ops, kernel):
    _run(kernel, _toggle_events(ops, _STREAM_LABELS))


@settings(max_examples=30, deadline=None)
@given(ops=_stream_ops, kernel=st.sampled_from(["scalar", "numpy"]))
def test_str_labelled_snapshot_has_no_int_column(ops, kernel):
    clusterer = StreamingGraphClusterer(
        ClustererConfig(reservoir_capacity=6, seed=5, strict=False, kernel=kernel)
    )
    clusterer.apply_many(_toggle_events(ops, [f"v{label}" for label in _STREAM_LABELS]))
    _check_snapshot(clusterer, False)
    restored = StreamingGraphClusterer.from_state(clusterer.get_state())
    assert _check_snapshot(restored, False) == render_snapshot(clusterer.snapshot())


@pytest.mark.parametrize("kernel", ["scalar", "numpy"])
@pytest.mark.parametrize("midway", ["x", 2**64, -(2**63) - 1])
def test_int_stream_drops_its_int_column_midway(kernel, midway):
    ops = [(i % 10, (3 * i + 1) % 10) for i in range(60)] + [(4, 4), (2, 2)]
    _run(kernel, _toggle_events(ops, _STREAM_LABELS), midway=midway)


@pytest.mark.parametrize("kernel", ["scalar", "numpy"])
def test_vertex_churn_snapshot(kernel):
    # Fresh vertices join in chains of ten and all but one of each fourth
    # chain are deleted, so the intern table, and the label column with
    # it, outgrows the live vertex set many times over.
    labels = [(-1) ** i * (2**53 + i) for i in range(800)]
    events = []
    for start in range(0, len(labels), 10):
        chain = labels[start:start + 10]
        events += [(EventKind.ADD_EDGE, u, v) for u, v in zip(chain, chain[1:])]
        kept = chain[-1:] if start % 40 == 0 else []
        events += [(EventKind.DELETE_VERTEX, v, None) for v in chain if v not in kept]
    _run(kernel, events)
