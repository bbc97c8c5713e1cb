"""Equivalence properties of the batch kernel.

The contract under test: for *any* split of a stream into batches,
``apply_many`` leaves the clusterer in a state identical to applying the
events one at a time (``apply``, a one-event batch) — same reservoir
contents and RNG state, same statistics, same tracked graph, same
clustering. The tests drive both over random add/delete streams (with
vertex events as batch barriers), check both against the per-event model
of ``tests/reference.py``, and against an oracle that recomputes the
components of the sample from scratch through the public API.
"""

from __future__ import annotations

import functools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity import UnionFind
from repro.core import (
    ClustererConfig,
    CompositeConstraint,
    MaxClusterSize,
    MinClusterCount,
    StreamingGraphClusterer,
    Unconstrained,
)
from repro.core.batchkernel import _SMALL_BATCH
from repro.core.sharded import ShardedClusterer
from repro.persist import load_checkpoint, save_checkpoint
from repro.quality import Partition
from repro.streams import EdgeEvent, EventColumns, EventKind
from repro.streams.events import EVENT_KINDS
from tests.reference import ClustererModel, assert_matches

# Operation stream over a small vertex universe: (u, v) toggles the
# edge, so the stream is always well-formed under strict semantics.
_ops = st.lists(
    st.tuples(st.integers(0, 13), st.integers(0, 13)).filter(lambda p: p[0] != p[1]),
    min_size=1,
    max_size=120,
)


def _raw_events(ops, barrier_every=0):
    """Toggle ops into a well-formed raw event stream.

    With ``barrier_every`` > 0, a DELETE_VERTEX barrier is interleaved
    periodically (of a vertex currently present), exercising the
    flush-and-barrier path inside ``apply_many``.
    """
    live: set = set()
    events = []
    for index, (a, b) in enumerate(ops):
        edge = (min(a, b), max(a, b))
        if edge in live:
            events.append((EventKind.DELETE_EDGE, edge[0], edge[1]))
            live.discard(edge)
        else:
            events.append((EventKind.ADD_EDGE, a, b))
            live.add(edge)
        if barrier_every and index % barrier_every == barrier_every - 1:
            victim = edge[0]
            events.append((EventKind.DELETE_VERTEX, victim, None))
            live = {e for e in live if victim not in e}
    return events


def _strip_config(state: dict) -> dict:
    """Drop the config for comparison: constraint instances have no
    ``__eq__``, so two structurally identical configs never compare
    equal. Configs are compared by repr where they matter."""
    state.pop("config")
    return state


def _run_per_event(events, **config_kwargs) -> StreamingGraphClusterer:
    clusterer = StreamingGraphClusterer(ClustererConfig(**config_kwargs))
    for event in events:
        clusterer.apply(EdgeEvent(*event))
    return clusterer


def _run_model(events, **config_kwargs) -> ClustererModel:
    model = ClustererModel(ClustererConfig(**config_kwargs))
    for event in events:
        model.apply(*event)
    return model


def _run_batched(events, rng, **config_kwargs) -> StreamingGraphClusterer:
    """Apply ``events`` through apply_many over a random split."""
    clusterer = StreamingGraphClusterer(ClustererConfig(**config_kwargs))
    index = 0
    while index < len(events):
        step = rng.randrange(1, len(events) - index + 1)
        clusterer.apply_many(events[index : index + step])
        index += step
    return clusterer


@settings(max_examples=60, deadline=None)
@given(
    ops=_ops,
    seed=st.integers(0, 2**20),
    capacity=st.integers(1, 25),
    split_seed=st.integers(0, 2**10),
)
def test_apply_many_matches_per_event_for_any_split(
    ops, seed, capacity, split_seed
):
    events = _raw_events(ops)
    kwargs = dict(reservoir_capacity=capacity, seed=seed)
    reference = _run_per_event(events, **kwargs)
    batched = _run_batched(events, random.Random(split_seed), **kwargs)
    assert _strip_config(batched.get_state()) == _strip_config(reference.get_state())
    assert batched.snapshot() == reference.snapshot()
    assert batched.num_clusters == reference.num_clusters
    assert_matches(batched, _run_model(events, **kwargs))


def _split_sizes(rng, length):
    """Batch sizes that cover both sides of the batch kernel's
    plain-Python crossover: half drawn from 1 to just past it, half from
    just below it to 300."""
    sizes = []
    while sum(sizes) < length:
        if rng.random() < 0.5:
            sizes.append(rng.randint(1, _SMALL_BATCH + 1))
        else:
            sizes.append(rng.randint(_SMALL_BATCH - 1, 300))
    return sizes


def _in_form(batch, form):
    """A raw-tuple batch as ``apply_many`` gets it from each source: the
    tuples themselves, tuples with :class:`EdgeEvent` objects among them
    (never first), list columns (the stream readers), or the wire
    decode's columns (:func:`_as_columns`)."""
    if form == "tuples":
        return batch
    if form == "mixed":
        mixed = list(batch)
        for i in range(1, len(mixed), 3):
            try:
                mixed[i] = EdgeEvent(*mixed[i])
            except ValueError:  # a self-loop stays a tuple
                pass
        return mixed
    if form == "array_columns":
        return _as_columns(batch)
    return EventColumns(
        us=[u for _, u, _ in batch],
        vs=[v for _, _, v in batch],
        kinds=[kind for kind, _, _ in batch],
    )


@settings(max_examples=60, deadline=None)
@given(
    stream_seed=st.integers(0, 2**20),
    length=st.integers(1, 700),
    num_vertices=st.integers(3, 60),
    seed=st.integers(0, 2**20),
    capacity=st.integers(1, 40),
    split_seed=st.integers(0, 2**10),
    lean=st.booleans(),
    form=st.sampled_from(
        ["tuples", "mixed", "list_columns", "array_columns", "str_labels"]
    ),
    policy=st.sampled_from(["unconstrained", "max_size", "min_count", "composite"]),
    bound=st.integers(2, 40),
)
def test_scalar_any_split_matches_per_event_in_every_form(
    stream_seed, length, num_vertices, seed, capacity, split_seed, lean, form, policy, bound
):
    """The scalar kernel's split property over what the system feeds
    ``apply_many``: tuples, tuples mixed with EdgeEvents, list columns,
    the wire decode's int64 array columns with kind codes, and str
    labels; lean streams that delete
    and re-add edges, tracked ones with malformed events and vertex
    events; batches on both sides of the crossover; every admission
    policy. A batch that raises stops at the raising event, so the
    per-event references (``apply`` and the model) skip the rest of that
    batch too; the states, the errors and the partitions must all be
    equal."""
    events = _churn_events(random.Random(stream_seed), length, num_vertices, lean)
    if form == "str_labels":
        events = [
            (kind, f"v{u}", None if v is None else f"v{v}") for kind, u, v in events
        ]
        form = "list_columns"
    kwargs = dict(
        reservoir_capacity=capacity,
        seed=seed,
        strict=False,
        track_graph=not lean,
        constraint=_bounded_policy(policy, bound),
    )
    reference = StreamingGraphClusterer(ClustererConfig(**kwargs))
    model = ClustererModel(ClustererConfig(**kwargs))
    batched = StreamingGraphClusterer(ClustererConfig(**kwargs))
    expected, got = [], []
    start = 0
    for size in _split_sizes(random.Random(split_seed), len(events)):
        batch = events[start : start + size]
        start += size
        for event in batch:
            try:
                model.apply(*event)
            except ValueError as error:
                expected.append(str(error))
                with pytest.raises(ValueError):
                    reference.apply(EdgeEvent(*event))
                break
            reference.apply(EdgeEvent(*event))
        try:
            batched.apply_many(_in_form(batch, form))
        except ValueError as error:
            got.append(str(error))
    assert got == expected
    assert pickle.dumps(batched.get_state()) == pickle.dumps(reference.get_state())
    assert_matches(batched, model)
    assert batched.snapshot() == _oracle_partition(batched)


def _bounded_policy(name, bound):
    if name == "max_size":
        return MaxClusterSize(bound)
    if name == "min_count":
        return MinClusterCount(bound)
    if name == "composite":
        return CompositeConstraint([MaxClusterSize(bound), MinClusterCount(bound // 2 + 1)])
    return Unconstrained()


@pytest.mark.parametrize("form", ["tuples", "array_columns"])
@pytest.mark.parametrize("length", [10, 2 * _SMALL_BATCH])
@pytest.mark.parametrize("kernel", ["scalar", "numpy"])
def test_min_cluster_count_counts_components_as_of_each_event(kernel, length, form):
    """The kernel registers a batch's endpoints before it samples any of
    its events, yet a ``MinClusterCount`` veto at an event must count
    only the vertices registered by that event and the ones before it.
    Disjoint edges into a sample with room for all of them: each event
    brings two singletons, so counting the whole batch's would let every
    admission through."""
    events = [(EventKind.ADD_EDGE, 2 * i, 2 * i + 1) for i in range(length)]
    config = ClustererConfig(
        reservoir_capacity=length,
        seed=3,
        strict=False,
        kernel=kernel,
        constraint=MinClusterCount(length),
    )
    batched = StreamingGraphClusterer(config)
    batched.apply_many(_in_form(events, form))
    model = _run_model(
        events, reservoir_capacity=length, seed=3, strict=False, constraint=MinClusterCount(length)
    )
    assert model.stats["vetoes"] == length // 2
    assert_matches(batched, model)


@settings(max_examples=25, deadline=None)
@given(
    ops=_ops,
    seed=st.integers(0, 2**20),
    split_seed=st.integers(0, 2**10),
)
def test_apply_many_with_vertex_delete_barriers(ops, seed, split_seed):
    events = _raw_events(ops, barrier_every=7)
    kwargs = dict(reservoir_capacity=8, seed=seed, strict=False)
    reference = _run_per_event(events, **kwargs)
    batched = _run_batched(events, random.Random(split_seed), **kwargs)
    assert _strip_config(batched.get_state()) == _strip_config(reference.get_state())
    assert_matches(batched, _run_model(events, **kwargs))


@settings(max_examples=25, deadline=None)
@given(ops=_ops, seed=st.integers(0, 2**20))
def test_one_big_batch_matches_per_event_queries(ops, seed):
    """A single apply_many call answers live queries identically even
    while its connectivity flush is still deferred."""
    events = _raw_events(ops)
    kwargs = dict(reservoir_capacity=10, seed=seed)
    reference = _run_per_event(events, **kwargs)
    batched = StreamingGraphClusterer(ClustererConfig(**kwargs))
    batched.apply_many(events)
    vertices = sorted(reference.vertices())
    for v in vertices:
        assert batched.cluster_size(v) == reference.cluster_size(v)
        assert batched.cluster_members(v) == reference.cluster_members(v)
    for u, v in zip(vertices, vertices[1:]):
        assert batched.same_cluster(u, v) == reference.same_cluster(u, v)
    assert batched.snapshot() == reference.snapshot()


@settings(max_examples=30, deadline=None)
@given(
    ops=_ops,
    seed=st.integers(0, 2**20),
    cut=st.integers(0, 120),
)
def test_checkpoint_roundtrip_mid_stream(tmp_path_factory, ops, seed, cut):
    """Checkpoint a batched run mid-stream, restore, finish the tail —
    identical end state to an uninterrupted per-event run. Exercises the
    slot-array reservoir's state round-trip (slot order and RNG state
    must survive exactly for the remaining stream to replay bit-equal).
    """
    events = _raw_events(ops)
    cut = min(cut, len(events))
    kwargs = dict(reservoir_capacity=7, seed=seed)
    reference = _run_per_event(events, **kwargs)

    head = StreamingGraphClusterer(ClustererConfig(**kwargs))
    head.apply_many(events[:cut])
    path = tmp_path_factory.mktemp("ckpt") / "mid.ckpt"
    save_checkpoint(head, path, position=cut)
    checkpoint = load_checkpoint(path)
    assert checkpoint.position == cut
    restored = checkpoint.clusterer
    restored.apply_many(events[cut:])
    assert _strip_config(restored.get_state()) == _strip_config(reference.get_state())
    assert restored.snapshot() == reference.snapshot()
    assert_matches(restored, _run_model(events, **kwargs))


# Mixed stream over a small universe: edge adds and deletes, vertex adds
# and deletes. Nothing keeps it well-formed; malformed events are
# counted (strict=False) and must change nothing.
_KINDS = (
    EventKind.ADD_EDGE,
    EventKind.ADD_EDGE,
    EventKind.DELETE_EDGE,
    EventKind.ADD_VERTEX,
    EventKind.DELETE_VERTEX,
)
_mixed_ops = st.lists(
    st.tuples(st.sampled_from(_KINDS), st.integers(0, 11), st.integers(0, 11)),
    min_size=1,
    max_size=80,
)

_POLICIES = {
    "unconstrained": Unconstrained,
    "max_size": lambda: MaxClusterSize(4),
    "min_count": lambda: MinClusterCount(4),
}


def _mixed_events(ops):
    events = []
    for kind, a, b in ops:
        if kind in (EventKind.ADD_VERTEX, EventKind.DELETE_VERTEX):
            events.append(EdgeEvent(kind, a, None))
        elif a != b:
            events.append(EdgeEvent(kind, a, b))
    return events


def _union_find(vertices, edges) -> UnionFind:
    union = UnionFind(vertices)
    for u, v in edges:
        union.union(u, v)
    return union


def _oracle_partition(clusterer) -> Partition:
    """The components of ``reservoir_edges()`` over ``vertices()``,
    recomputed from scratch."""
    return Partition.from_clusters(
        _union_find(clusterer.vertices(), clusterer.reservoir_edges()).groups()
    )


@settings(max_examples=60, deadline=None)
@given(
    ops=_mixed_ops,
    seed=st.integers(0, 2**20),
    capacity=st.integers(1, 12),
    policy=st.sampled_from(sorted(_POLICIES)),
)
def test_per_event_matches_from_scratch_components(ops, seed, capacity, policy):
    """After every event the clustering is the components of the sample,
    and the merge/split counters moved by exactly the change in the
    component count, with evictions counted before the insertion."""
    clusterer = StreamingGraphClusterer(
        ClustererConfig(
            reservoir_capacity=capacity,
            seed=seed,
            strict=False,
            constraint=_POLICIES[policy](),
        )
    )
    for event in _mixed_events(ops):
        edges_before = set(clusterer.reservoir_edges())
        vertices_before = set(clusterer.vertices())
        merges = clusterer.stats.component_merges
        splits = clusterer.stats.component_splits
        clusterer.apply(event)
        edges_after = set(clusterer.reservoir_edges())
        universe = vertices_before | set(clusterer.vertices())

        def count(edges):
            return _union_find(universe, edges).num_sets

        kept = count(edges_before & edges_after)
        assert clusterer.stats.component_splits - splits == kept - count(
            edges_before
        )
        assert clusterer.stats.component_merges - merges == kept - count(
            edges_after
        )
        assert clusterer.snapshot() == _oracle_partition(clusterer)
        assert clusterer.num_clusters == clusterer.snapshot().num_clusters


def _as_columns(batch):
    """A raw-tuple batch as ``EventColumns``: int64 arrays with a
    kind-code array (the wire decode's form) when every event is an
    edge event, list columns otherwise."""
    import numpy as np

    kinds = [kind for kind, _, _ in batch]
    us = [u for _, u, _ in batch]
    vs = [v for _, _, v in batch]
    if all(kind in (EventKind.ADD_EDGE, EventKind.DELETE_EDGE) for kind in kinds):
        return EventColumns(
            us=np.array(us, dtype=np.int64),
            vs=np.array(vs, dtype=np.int64),
            kinds=np.array([EVENT_KINDS.index(kind) for kind in kinds], dtype=np.int8),
        )
    return EventColumns(us=us, vs=vs, kinds=kinds)


def _churn_events(rng, length, num_vertices, lean):
    """A stream in which about 35% of the events delete a live edge and
    about 10% re-add one.

    A re-add is a malformed duplicate on a tracked graph. In lean mode
    it is a new sample candidate: an edge evicted earlier in a run can
    come back and leave again, and a re-add of a sampled edge raises
    ``duplicate sample item``. Tracked streams also delete absent edges
    and carry vertex events.
    """
    live: list = []
    events = []
    while len(events) < length:
        roll = rng.random()
        if live and roll < 0.35:
            u, v = live.pop(rng.randrange(len(live)))
            events.append((EventKind.DELETE_EDGE, u, v))
        elif live and roll < 0.45:
            u, v = rng.choice(live)
            events.append((EventKind.ADD_EDGE, u, v))
        elif not lean and roll < 0.47:
            events.append((EventKind.DELETE_EDGE, rng.randrange(num_vertices), num_vertices))
        elif not lean and roll > 0.98:
            kind = EventKind.ADD_VERTEX if roll > 0.99 else EventKind.DELETE_VERTEX
            vertex = rng.randrange(num_vertices + 5)
            events.append((kind, vertex, None))
            if kind is EventKind.DELETE_VERTEX:
                live = [edge for edge in live if vertex not in edge]
        else:
            u, v = rng.sample(range(num_vertices), 2)
            edge = (min(u, v), max(u, v))
            if edge not in live:
                live.append(edge)
                events.append((EventKind.ADD_EDGE, u, v))
    return events


@settings(max_examples=40, deadline=None)
@given(
    stream_seed=st.integers(0, 2**20),
    length=st.integers(1, 1500),
    num_vertices=st.integers(3, 120),
    seed=st.integers(0, 2**20),
    capacity=st.integers(1, 200),
    split_seed=st.integers(0, 2**10),
    columns=st.booleans(),
    lean=st.booleans(),
    kernel=st.sampled_from(["scalar", "numpy"]),
)
def test_numpy_kernel_matches_from_scratch_components(
    stream_seed, length, num_vertices, seed, capacity, split_seed, columns, lean, kernel
):
    """Reads at random points, after batches of 1 to 299 events, match
    the components of the sample recomputed from scratch, on both
    kernels: on numpy small sample changes are replayed, large ones
    rebuilt. In lean mode a batch can stop at a duplicate sample item,
    which must not evict anything first."""
    clusterer = StreamingGraphClusterer(
        ClustererConfig(
            reservoir_capacity=capacity,
            seed=seed,
            strict=False,
            kernel=kernel,
            track_graph=not lean,
        )
    )
    events = _churn_events(random.Random(stream_seed), length, num_vertices, lean)
    rng = random.Random(split_seed)
    index = 0
    while index < len(events):
        step = int(300 ** rng.random())  # 1 to 299 events, log-uniform
        batch = events[index : index + step]
        try:
            clusterer.apply_many(_as_columns(batch) if columns else batch)
        except ValueError as error:
            # Lean-mode stream errors: the batch stops at the bad event.
            assert lean and (
                "duplicate sample item" in str(error)
                or "empty population" in str(error)
            )
        index += step
        if rng.random() < 0.5:
            assert clusterer.snapshot() == _oracle_partition(clusterer)
            assert clusterer.num_clusters == clusterer.snapshot().num_clusters
    assert clusterer.snapshot() == _oracle_partition(clusterer)


@pytest.mark.parametrize("batch", [0, 16])
def test_duplicate_sample_item_evicts_nothing(batch):
    """Lean mode: adding an edge that is already sampled raises
    ``duplicate sample item``, possibly after its draws picked a victim.
    The victim must stay sampled and linked, per event (``batch`` 0) and
    batched alike, so the clusters stay the components of the sample."""
    failures = 0
    for seed in range(60):
        rng = random.Random(seed)
        clusterer = StreamingGraphClusterer(
            ClustererConfig(
                reservoir_capacity=5, seed=seed, strict=False, track_graph=False
            )
        )
        events = [
            (EventKind.ADD_EDGE, *rng.sample(range(30), 2)) for _ in range(200)
        ]
        for start in range(0, len(events), batch or 1):
            try:
                if batch:
                    clusterer.apply_many(events[start : start + batch])
                else:
                    clusterer.apply(EdgeEvent(*events[start]))
            except ValueError as error:
                assert "duplicate sample item" in str(error)
                failures += 1
        assert clusterer.reservoir_size == 5
        assert clusterer.snapshot() == _oracle_partition(clusterer)
    assert failures > 0


@pytest.mark.parametrize("form", ["tuples", "list_columns", "array_columns"])
@pytest.mark.parametrize("kernel", ["scalar", "numpy"])
def test_malformed_addition_in_a_long_insert_only_batch(kernel, form):
    """A duplicate addition dropped from a long batch of additions only
    (no deletion positions) leaves every other event registered and
    sampled as one event at a time does."""
    events = [(EventKind.ADD_EDGE, u, u + 1) for u in range(_SMALL_BATCH)]
    events += [(EventKind.ADD_EDGE, 1, 0)]
    events += [(EventKind.ADD_EDGE, u, u + 1) for u in range(100, 110)]
    config = ClustererConfig(reservoir_capacity=500, seed=1, strict=False, kernel=kernel)
    batched = StreamingGraphClusterer(config)
    batched.apply_many(_in_form(events, form))
    one_at_a_time = StreamingGraphClusterer(config)
    for event in events:
        one_at_a_time.apply_many([event])
    assert batched.stats.malformed_events == 1
    assert pickle.dumps(batched.get_state()) == pickle.dumps(one_at_a_time.get_state())


@pytest.mark.parametrize("kernel", ["scalar", "numpy"])
def test_sharded_vertex_deletions_count_as_fallbacks(kernel):
    """A broadcast DELETE_VERTEX reaches each shard as a one-event batch,
    so every shard's kernel counts it, as a single clusterer's does."""
    config = ClustererConfig(reservoir_capacity=30, seed=4, strict=False, kernel=kernel)
    adds = [(EventKind.ADD_EDGE, u, u + 1) for u in range(40)]
    deletion = (EventKind.DELETE_VERTEX, 7, None)
    single = StreamingGraphClusterer(config)
    single.apply_many(adds)
    single.apply_many([deletion])
    assert single.kernel_fallback_events == 1
    batched = ShardedClusterer(config, 2)
    batched.apply_many(adds + [deletion])
    per_event = ShardedClusterer(config, 2)
    for event in adds + [deletion]:
        per_event.apply(EdgeEvent(*event))
    for sharded in (batched, per_event):
        assert [shard.kernel_fallback_events for shard in sharded.shards] == [1, 1]
        assert sum(shard.stats.vertex_deletes for shard in sharded.shards) == 2
    if kernel == "scalar":  # numpy draws depend on batch boundaries
        assert batched.snapshot() == per_event.snapshot()


def test_sharded_apply_many_matches_per_event():
    rng = random.Random(11)
    ops = [(rng.randrange(40), rng.randrange(40)) for _ in range(600)]
    events = _raw_events([op for op in ops if op[0] != op[1]])
    config = ClustererConfig(reservoir_capacity=50, seed=4, strict=False)
    reference = ShardedClusterer(config, 3)
    for event in events:
        reference.apply(EdgeEvent(*event))
    batched = ShardedClusterer(config, 3).process(events, batch_size=128)
    state_a, state_b = reference.get_state(), batched.get_state()
    state_a.pop("config")
    state_b.pop("config")
    for shard_a, shard_b in zip(state_a.pop("shards"), state_b.pop("shards")):
        assert _strip_config(shard_a) == _strip_config(shard_b)
    assert state_a == state_b
    assert reference.snapshot() == batched.snapshot()


class TestNoReextractionWithoutStructuralChange:
    """Regression: repeated snapshots between updates must reuse the
    cached partition, and events that change nothing structural must not
    invalidate it (``partition_builds`` counts actual extractions)."""

    def _seeded(self) -> StreamingGraphClusterer:
        clusterer = StreamingGraphClusterer(
            ClustererConfig(reservoir_capacity=100, seed=0, strict=False)
        )
        clusterer.apply_many(
            [
                (EventKind.ADD_EDGE, 1, 2),
                (EventKind.ADD_EDGE, 2, 3),
                (EventKind.ADD_EDGE, 4, 5),
            ]
        )
        return clusterer

    def test_repeated_queries_build_once(self):
        clusterer = self._seeded()
        assert clusterer.partition_builds == 0
        first = clusterer.snapshot()
        assert clusterer.partition_builds == 1
        assert clusterer.snapshot() is not None
        assert clusterer.num_clusters == first.num_clusters
        assert clusterer.cluster_size(1) == 3
        assert clusterer.partition_builds == 1

    def test_non_structural_events_keep_cache(self):
        clusterer = self._seeded()
        clusterer.snapshot()
        # A duplicate add and a delete of an unknown edge are counted as
        # malformed (strict=False) and change no structure.
        clusterer.apply_many(
            [(EventKind.ADD_EDGE, 1, 2), (EventKind.DELETE_EDGE, 8, 9)]
        )
        clusterer.snapshot()
        assert clusterer.partition_builds == 1
        assert clusterer.stats.malformed_events == 2

    def test_structural_change_rebuilds_once(self):
        clusterer = self._seeded()
        clusterer.snapshot()
        clusterer.apply_many([(EventKind.ADD_EDGE, 5, 6)])
        clusterer.snapshot()
        clusterer.snapshot()
        assert clusterer.partition_builds == 2

    @pytest.mark.parametrize("kernel", ["scalar", "numpy"])
    def test_every_build_calls_partition_init(self, monkeypatch, kernel):
        # servebench's traced launcher times partition builds by wrapping
        # Partition.__init__, so each build must construct through it.
        calls = []
        init = Partition.__init__

        @functools.wraps(init)
        def counted(*args, **kwargs):
            calls.append(None)
            return init(*args, **kwargs)

        monkeypatch.setattr(Partition, "__init__", counted)
        clusterer = StreamingGraphClusterer(
            ClustererConfig(reservoir_capacity=100, seed=0, strict=False, kernel=kernel)
        )
        clusterer.apply_many([(EventKind.ADD_EDGE, u, u + 1) for u in range(0, 40, 3)])
        for probe in range(8):
            # A one-edge probe between fresh vertices, then two reads.
            clusterer.apply_many([(EventKind.ADD_EDGE, -2 * probe - 1, -2 * probe - 2)])
            clusterer.snapshot()
            clusterer.snapshot()
        assert clusterer.partition_builds == 8
        assert len(calls) == clusterer.partition_builds
