"""Equivalence properties of the batched ingestion fast path.

The contract under test: for *any* split of a stream into batches,
``apply_many`` leaves the clusterer in a state identical to applying the
events one at a time — same reservoir contents and RNG state, same
statistics, same tracked graph, same clustering. The tests drive both
paths over random add/delete streams (with vertex events as batch
barriers), and check both against an oracle that recomputes the
components of the sample from scratch through the public API.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity import UnionFind
from repro.core import (
    ClustererConfig,
    MaxClusterSize,
    MinClusterCount,
    StreamingGraphClusterer,
    Unconstrained,
)
from repro.core.sharded import ShardedClusterer
from repro.persist import load_checkpoint, save_checkpoint
from repro.quality import Partition
from repro.streams import EdgeEvent, EventColumns, EventKind
from repro.streams.events import EVENT_KINDS

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
)
def test_numpy_kernel_matches_from_scratch_components(
    stream_seed, length, num_vertices, seed, capacity, split_seed, columns, lean
):
    """Reads at random points, after batches of 1 to 299 events, match
    the components of the sample recomputed from scratch: small sample
    changes are replayed, large ones rebuilt."""
    clusterer = StreamingGraphClusterer(
        ClustererConfig(
            reservoir_capacity=capacity,
            seed=seed,
            strict=False,
            kernel="numpy",
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
