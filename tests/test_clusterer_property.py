"""Property-based tests for the streaming clusterer's invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClustererConfig, MaxClusterSize, StreamingGraphClusterer
from repro.streams import add_edge, delete_edge

# Operation stream over a small vertex universe: (u, v) toggles the edge.
_ops = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda p: p[0] != p[1]),
    min_size=1,
    max_size=120,
)


def _drive(clusterer: StreamingGraphClusterer, ops) -> set:
    live: set = set()
    for a, b in ops:
        edge = (min(a, b), max(a, b))
        if edge in live:
            clusterer.apply(delete_edge(*edge))
            live.discard(edge)
        else:
            clusterer.apply(add_edge(*edge))
            live.add(edge)
    return live


@settings(max_examples=80, deadline=None)
@given(ops=_ops, seed=st.integers(0, 2**20), capacity=st.integers(1, 30))
def test_sample_is_subset_of_live_edges(ops, seed, capacity):
    clusterer = StreamingGraphClusterer(
        ClustererConfig(reservoir_capacity=capacity, seed=seed)
    )
    live = _drive(clusterer, ops)
    sampled = clusterer.reservoir_edges()
    assert len(sampled) == len(set(sampled))
    assert set(sampled) <= live
    assert clusterer.graph.num_edges == len(live)


@settings(max_examples=80, deadline=None)
@given(ops=_ops, seed=st.integers(0, 2**20))
def test_snapshot_is_a_partition_of_seen_vertices(ops, seed):
    clusterer = StreamingGraphClusterer(
        ClustererConfig(reservoir_capacity=10, seed=seed)
    )
    _drive(clusterer, ops)
    snapshot = clusterer.snapshot()
    seen = set(clusterer.vertices())
    assert set(snapshot.vertices()) == seen
    assert sum(snapshot.sizes()) == len(seen)
    assert snapshot.num_clusters == clusterer.num_clusters


@settings(max_examples=80, deadline=None)
@given(ops=_ops, seed=st.integers(0, 2**20))
def test_clusters_refine_true_components(ops, seed):
    """Sampling can only *split* components, never join separate ones:
    every declared cluster must lie inside one true component."""
    clusterer = StreamingGraphClusterer(
        ClustererConfig(reservoir_capacity=5, seed=seed)
    )
    _drive(clusterer, ops)
    true_components = clusterer.graph.connected_components()
    label_of = {}
    for index, component in enumerate(true_components):
        for v in component:
            label_of[v] = index
    for cluster in clusterer.snapshot().clusters():
        labels = {label_of[v] for v in cluster}
        assert len(labels) == 1


@settings(max_examples=60, deadline=None)
@given(
    ops=_ops,
    seed=st.integers(0, 2**20),
    limit=st.integers(1, 6),
)
def test_max_cluster_size_invariant_holds_throughout(ops, seed, limit):
    clusterer = StreamingGraphClusterer(
        ClustererConfig(
            reservoir_capacity=20, seed=seed, constraint=MaxClusterSize(limit)
        )
    )
    live: set = set()
    for a, b in ops:
        edge = (min(a, b), max(a, b))
        if edge in live:
            clusterer.apply(delete_edge(*edge))
            live.discard(edge)
        else:
            clusterer.apply(add_edge(*edge))
            live.add(edge)
        assert clusterer.snapshot().max_cluster_size <= limit
