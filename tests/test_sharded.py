"""Unit tests for the sharded (parallel) clusterer."""

import pytest

from repro.core import (
    ClustererConfig,
    ShardedClusterer,
    StreamingGraphClusterer,
)
from repro.core.sharded import _mp_context
from repro.streams import (
    add_edge,
    add_vertex,
    delete_edge,
    delete_vertex,
    insert_only_stream,
    planted_partition,
)


@pytest.fixture
def sbm_events():
    graph = planted_partition(120, 3, p_in=0.3, p_out=0.01, seed=21)
    return insert_only_stream(graph.edges, seed=21), graph.truth


def make(num_shards=4, capacity=400, **kwargs) -> ShardedClusterer:
    return ShardedClusterer(
        ClustererConfig(reservoir_capacity=capacity, strict=False, **kwargs),
        num_shards=num_shards,
    )


class TestRouting:
    def test_events_distributed_across_shards(self, sbm_events):
        events, _ = sbm_events
        sharded = make().process(events)
        assert all(count > 0 for count in sharded.shard_events)
        assert sum(sharded.shard_events) == len(events)

    def test_routing_is_deterministic(self, sbm_events):
        events, _ = sbm_events
        a = make().process(events)
        b = make().process(events)
        assert a.shard_events == b.shard_events
        assert a.snapshot() == b.snapshot()

    def test_vertex_events_broadcast(self):
        sharded = make(num_shards=3)
        sharded.apply(add_vertex(7))
        assert all(7 in shard.snapshot() for shard in sharded.shards)

    def test_vertex_delete_broadcast(self):
        sharded = make(num_shards=2)
        sharded.apply(add_edge(1, 2))
        sharded.apply(add_edge(1, 3))
        sharded.apply(delete_vertex(1))
        assert 1 not in sharded.snapshot()


class TestMergedClustering:
    def test_merged_components_union_shards(self, sbm_events):
        events, truth = sbm_events
        sharded = make().process(events)
        merged = sharded.snapshot()
        # Every shard-local same-cluster pair must stay together merged.
        for shard in sharded.shards:
            for u, v in shard.reservoir_edges():
                assert merged.same_cluster(u, v)

    def test_queries_on_unseen_vertices(self):
        sharded = make()
        sharded.apply(add_edge(1, 2))
        assert not sharded.same_cluster(1, 999)
        assert sharded.cluster_members(999) == {999}

    def test_cache_invalidation_on_update(self):
        sharded = make()
        sharded.apply(add_edge(1, 2))
        assert sharded.same_cluster(1, 2)
        sharded.apply(delete_edge(1, 2))
        assert not sharded.same_cluster(1, 2)

    def test_total_reservoir_bounded_by_budget(self, sbm_events):
        events, _ = sbm_events
        sharded = make(num_shards=4, capacity=400).process(events)
        assert sharded.total_reservoir_size <= 400

    def test_shard_balance_in_range(self, sbm_events):
        events, _ = sbm_events
        sharded = make(num_shards=4).process(events)
        assert 1.0 <= sharded.shard_balance <= 4.0
        assert sharded.shard_balance > 3.0  # hashing balances well

    def test_single_shard_matches_plain_clusterer_structure(self, sbm_events):
        events, _ = sbm_events
        sharded = make(num_shards=1, capacity=300).process(events)
        plain = StreamingGraphClusterer(
            ClustererConfig(reservoir_capacity=300, strict=False,
                            seed=sharded.shards[0].config.seed)
        ).process(events)
        assert sharded.snapshot() == plain.snapshot()


class TestSpawnContext:
    def test_drivers_use_spawn_start_method(self):
        """Worker processes must use ``spawn``, never the platform
        default: forked workers inherit the parent's RNG state and open
        descriptors, and results would differ between Linux and macOS."""
        ctx = _mp_context()
        assert ctx.get_start_method() == "spawn"
        assert ctx.Process.__name__ == "SpawnProcess"


class TestMergeCache:
    def test_merge_cached_until_structure_changes(self):
        sharded = make(num_shards=2)
        sharded.apply(add_edge(1, 2))
        sharded.apply(add_edge(3, 4))
        assert sharded.merge_builds == 0
        first = sharded.snapshot()
        assert sharded.merge_builds == 1
        # Read-only queries reuse the cached merge.
        assert sharded.snapshot() is first
        sharded.same_cluster(1, 2)
        sharded.cluster_members(3)
        assert sharded.merge_builds == 1

    def test_noop_events_do_not_rebuild(self):
        sharded = make(num_shards=2)
        sharded.apply(add_edge(1, 2))
        sharded.snapshot()
        builds = sharded.merge_builds
        # Duplicate add under strict=False leaves every shard's
        # structure version untouched, so the merge survives.
        sharded.apply(add_edge(1, 2))
        sharded.snapshot()
        assert sharded.merge_builds == builds

    def test_structural_change_rebuilds_once(self):
        sharded = make(num_shards=2)
        sharded.apply(add_edge(1, 2))
        sharded.snapshot()
        sharded.apply(delete_edge(1, 2))
        assert not sharded.same_cluster(1, 2)
        assert sharded.merge_builds == 2
        sharded.snapshot()
        assert sharded.merge_builds == 2

    def test_cache_survives_state_roundtrip(self):
        sharded = make(num_shards=2)
        sharded.apply(add_edge(1, 2))
        expected = sharded.snapshot()
        restored = ShardedClusterer.from_state(sharded.get_state())
        assert restored.merge_builds == 0
        assert restored.snapshot() == expected
        assert restored.merge_builds == 1
