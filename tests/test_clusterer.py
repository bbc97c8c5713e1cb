"""Unit tests for StreamingGraphClusterer."""

import pytest

from repro.core import (
    ClustererConfig,
    MaxClusterSize,
    MinClusterCount,
    StreamingGraphClusterer,
)
from repro.errors import StreamError, UnsupportedOperationError
from repro.streams import (
    add_edge,
    add_vertex,
    delete_edge,
    delete_vertex,
    insert_only_stream,
    planted_partition,
)


def make(capacity=100, **kwargs) -> StreamingGraphClusterer:
    return StreamingGraphClusterer(ClustererConfig(reservoir_capacity=capacity, **kwargs))


class TestBasicClustering:
    def test_small_reservoir_clusters_everything_sampled(self):
        c = make(capacity=10)
        for u, v in [(1, 2), (2, 3), (4, 5)]:
            c.apply(add_edge(u, v))
        # Reservoir is under-full: every edge sampled, components exact.
        assert c.same_cluster(1, 3)
        assert not c.same_cluster(1, 4)
        assert c.num_clusters == 2
        assert c.reservoir_size == 3

    def test_snapshot_covers_all_seen_vertices(self):
        c = make()
        c.apply(add_edge(1, 2))
        c.apply(add_vertex(42))
        snapshot = c.snapshot()
        assert 42 in snapshot
        assert snapshot.num_vertices == 3

    def test_cluster_queries(self):
        c = make()
        c.apply(add_edge("a", "b"))
        assert c.cluster_members("a") == {"a", "b"}
        assert c.cluster_size("a") == 2
        assert c.cluster_size("unseen") == 1
        assert c.cluster_id("a") == c.cluster_id("b")

    @pytest.mark.parametrize("kernel", ["scalar", "numpy"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_cluster_id_agrees_with_same_cluster(self, kernel, batched):
        c = make(strict=False, kernel=kernel)
        events = [
            add_vertex(10),  # first label: internal id 0
            add_edge(1, 2),
            add_edge(2, 3),
            add_edge(20, 21),
            add_edge(21, 22),
            delete_edge(21, 22),  # 22 split off into a singleton
            add_vertex(5),
            add_edge(7, 8),
            delete_vertex(7),  # 7 deleted, 8 left a singleton
            delete_edge(40, 41),  # absent: interned, never registered
        ]
        if batched:
            c.apply_many(events)
        else:
            for event in events:
                c.apply(event)
        seen = [10, 1, 2, 3, 20, 21, 22, 5, 7, 8, 40, 41]
        # Unseen labels, among them ints equal to other vertices' ids.
        unseen = [0, 4, 99, "x"]
        labels = seen + unseen
        assert c.same_cluster(1, 3) and not c.same_cluster(10, 0)
        for u in labels:
            for v in labels:
                assert (c.cluster_id(u) == c.cluster_id(v)) == c.same_cluster(
                    u, v
                ), (u, v)

    def test_process_chains(self):
        events = [add_edge(1, 2), add_edge(2, 3)]
        c = make().process(events)
        assert c.stats.events == 2

    def test_repr(self):
        c = make(capacity=5)
        assert "reservoir=0/5" in repr(c)

    def test_vertices_iteration(self):
        c = make()
        c.apply(add_edge(1, 2))
        c.apply(add_vertex(3))
        assert sorted(c.vertices()) == [1, 2, 3]


class TestDeletions:
    def test_delete_sampled_edge_splits(self):
        c = make(capacity=10)
        c.apply(add_edge(1, 2))
        c.apply(delete_edge(1, 2))
        assert not c.same_cluster(1, 2)
        assert c.stats.sample_deletions == 1
        assert c.graph.num_edges == 0

    def test_delete_vertex_removes_incident_edges(self):
        c = make(capacity=10)
        for u, v in [(1, 2), (1, 3), (2, 3)]:
            c.apply(add_edge(u, v))
        c.apply(delete_vertex(1))
        snapshot = c.snapshot()
        assert 1 not in snapshot
        assert c.same_cluster(2, 3)
        assert c.graph.num_edges == 1

    def test_delete_vertex_without_tracking_unsupported(self):
        c = make(track_graph=False, strict=False)
        c.apply(add_edge(1, 2))
        with pytest.raises(UnsupportedOperationError):
            c.apply(delete_vertex(1))

    def test_heavy_churn_consistency(self, rng):
        c = make(capacity=50, strict=False)
        live = set()
        for step in range(3000):
            u, v = rng.sample(range(40), 2)
            edge = (min(u, v), max(u, v))
            if edge in live and rng.random() < 0.5:
                c.apply(delete_edge(*edge))
                live.discard(edge)
            elif edge not in live:
                c.apply(add_edge(*edge))
                live.add(edge)
        assert c.graph.num_edges == len(live)
        # Sampled sub-graph edges are all live.
        assert all(e in live for e in c.reservoir_edges())
        # Snapshot is a partition of exactly the seen vertices.
        snapshot = c.snapshot()
        assert snapshot.num_vertices == c.num_vertices


class TestStrictness:
    def test_duplicate_add_raises_when_strict(self):
        c = make(strict=True)
        c.apply(add_edge(1, 2))
        with pytest.raises(StreamError, match="duplicate"):
            c.apply(add_edge(2, 1))

    def test_delete_absent_edge_raises_when_strict(self):
        c = make(strict=True)
        with pytest.raises(StreamError, match="absent"):
            c.apply(delete_edge(1, 2))

    def test_delete_absent_vertex_raises_when_strict(self):
        c = make(strict=True)
        with pytest.raises(StreamError):
            c.apply(delete_vertex(9))

    def test_non_strict_counts_malformed(self):
        c = make(strict=False)
        c.apply(add_edge(1, 2))
        c.apply(add_edge(1, 2))
        c.apply(delete_edge(5, 6))
        assert c.stats.malformed_events == 2
        assert c.graph.num_edges == 1


class TestConstraints:
    def test_max_cluster_size_enforced(self):
        graph = planted_partition(120, 2, p_in=0.3, p_out=0.05, seed=5)
        c = make(capacity=2000, constraint=MaxClusterSize(15), strict=False)
        c.process(insert_only_stream(graph.edges, seed=1))
        assert c.snapshot().max_cluster_size <= 15
        assert c.stats.vetoes > 0

    def test_min_cluster_count_enforced(self):
        graph = planted_partition(60, 2, p_in=0.4, p_out=0.05, seed=6)
        c = make(capacity=2000, constraint=MinClusterCount(5), strict=False)
        c.process(insert_only_stream(graph.edges, seed=2))
        assert c.num_clusters >= 5


class TestLeanMode:
    def test_lean_mode_has_no_graph(self):
        c = make(track_graph=False, strict=False)
        c.apply(add_edge(1, 2))
        assert c.graph is None
        assert c.same_cluster(1, 2)

    def test_lean_mode_handles_deletions_of_sampled_edges(self):
        c = make(capacity=100, track_graph=False, strict=False)
        for i in range(10):
            c.apply(add_edge(i, i + 1))
        c.apply(delete_edge(3, 4))
        assert not c.same_cluster(0, 10)
