"""Failure-injection tests: malformed streams, degenerate configs, and
boundary conditions that a long-running deployment will eventually hit."""

import pytest

from repro.core import (
    ClustererConfig,
    MaxClusterSize,
    StreamingGraphClusterer,
)
from repro.errors import StreamError
from repro.streams import (
    add_edge,
    add_vertex,
    delete_edge,
    delete_vertex,
    shuffled,
)


class TestDegenerateConfigs:
    def test_capacity_one_reservoir(self):
        c = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=1, strict=False))
        for i in range(100):
            c.apply(add_edge(i, i + 1))
        assert c.reservoir_size == 1
        snapshot = c.snapshot()
        assert snapshot.max_cluster_size == 2  # one sampled edge
        assert snapshot.num_vertices == 101

    def test_capacity_one_with_deletions(self):
        c = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=1, strict=False))
        c.apply(add_edge(1, 2))
        c.apply(delete_edge(1, 2))
        assert c.reservoir_size == 0
        assert c.num_clusters == 2

    def test_constraint_tighter_than_any_edge(self):
        # MaxClusterSize(1) forbids every merge: all clusters stay singletons.
        c = StreamingGraphClusterer(
            ClustererConfig(
                reservoir_capacity=100, constraint=MaxClusterSize(1), strict=False
            )
        )
        for i in range(20):
            c.apply(add_edge(i, i + 1))
        assert c.snapshot().max_cluster_size == 1
        assert c.reservoir_size == 0  # every admission vetoed
        assert c.stats.vetoes == 20


class TestMalformedStreams:
    def test_interleaved_duplicates_and_ghosts_non_strict(self):
        c = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=10, strict=False))
        events = [
            add_edge(1, 2),
            add_edge(1, 2),  # duplicate
            delete_edge(3, 4),  # ghost delete
            delete_vertex(42),  # ghost vertex delete
            add_edge(2, 3),
            delete_edge(1, 2),
            delete_edge(1, 2),  # double delete
        ]
        c.process(events)
        assert c.stats.malformed_events == 4
        assert c.graph.num_edges == 1
        assert c.reservoir_size == 1

    def test_strict_mode_stops_at_first_malformation(self):
        c = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=10, strict=True))
        c.apply(add_edge(1, 2))
        with pytest.raises(StreamError):
            c.apply(add_edge(1, 2))
        # State before the bad event is intact and usable.
        assert c.graph.num_edges == 1
        c.apply(add_edge(2, 3))
        assert c.graph.num_edges == 2

    def test_self_loop_rejected_at_event_construction(self):
        with pytest.raises(ValueError):
            add_edge(5, 5)

    def test_add_delete_add_same_edge(self):
        c = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=10))
        c.apply(add_edge(1, 2))
        c.apply(delete_edge(1, 2))
        c.apply(add_edge(1, 2))
        assert c.graph.num_edges == 1
        assert c.same_cluster(1, 2) or c.reservoir_size == 0

    def test_vertex_delete_then_reuse(self):
        c = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=10))
        c.apply(add_edge(1, 2))
        c.apply(delete_vertex(1))
        c.apply(add_edge(1, 3))  # vertex id reused after deletion
        assert c.same_cluster(1, 3)
        assert not c.same_cluster(1, 2)

    def test_isolated_vertex_lifecycle(self):
        c = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=10))
        c.apply(add_vertex(7))
        c.apply(add_vertex(7))  # idempotent
        c.apply(delete_vertex(7))
        assert 7 not in c.snapshot()


class TestAdversarialOrders:
    def test_bridges_first_order_still_bounded_by_constraint(self):
        from repro.streams import adversarial_bridge_first, planted_partition

        graph = planted_partition(100, 2, p_in=0.3, p_out=0.0, seed=41)
        bridges = [(i, 50 + i) for i in range(10)]
        events = adversarial_bridge_first(graph.edges, bridges, seed=41)
        c = StreamingGraphClusterer(
            ClustererConfig(
                reservoir_capacity=2000, constraint=MaxClusterSize(60), strict=False
            )
        ).process(events)
        assert c.snapshot().max_cluster_size <= 60

    def test_order_does_not_change_final_graph(self):
        events = [add_edge(i, i + 1) for i in range(30)]
        a = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=1000))
        b = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=1000))
        a.process(events)
        b.process(shuffled(events, seed=4))
        # Reservoir is under-full in both: identical final clustering.
        assert a.snapshot() == b.snapshot()


class TestLongRunStability:
    def test_repeated_full_churn_cycles(self):
        """Build and tear down the whole graph many times; structures
        must not leak state across cycles."""
        c = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=20))
        edges = [(i, i + 1) for i in range(15)]
        for _ in range(25):
            for u, v in edges:
                c.apply(add_edge(u, v))
            for u, v in edges:
                c.apply(delete_edge(u, v))
        assert c.graph.num_edges == 0
        assert c.reservoir_size == 0
        assert all(c.cluster_size(v) == 1 for v in c.vertices())

    def test_clusterer_survives_vertex_recycling(self):
        c = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=50))
        for cycle in range(10):
            for i in range(10):
                c.apply(add_edge(i, (i + 1) % 10 + 20))
            for i in range(10):
                c.apply(delete_vertex(i))
        assert c.graph.num_edges == 0
        assert c.num_vertices == c.num_clusters == 10
