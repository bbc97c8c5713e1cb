"""Equivalence and fault-tolerance tests for the multiprocess pipeline.

The contract under test: for *any* producer batch size, frame size and
worker count, :class:`PipelineClusterer` ends in exactly the state a
sequential :class:`ShardedClusterer` reaches over the same stream —
identical merged partition, identical per-shard event counts, and
byte-identical checkpoint files — and worker deaths mid-stream are
absorbed by the replay log without changing any of that.
"""

from __future__ import annotations

import time
import warnings

import pytest

from repro import obs
from repro.core import (
    ClustererConfig,
    MaxClusterSize,
    PipelineClusterer,
    ShardedClusterer,
    SupervisorConfig,
)
from repro.errors import CheckpointError
from repro.persist import PeriodicCheckpointer, load_checkpoint, save_checkpoint
from repro.streams import insert_delete_stream, planted_partition
from repro.streams.events import EventKind
from repro.util.faults import CrashShard, HangShard

CONFIG = ClustererConfig(
    reservoir_capacity=60, seed=9, strict=False, constraint=MaxClusterSize(40)
)
# Both configurations run every worker event through the batch kernel:
# with a constraint its policy vetoes inside the sampler's loop.
UNCONSTRAINED = ClustererConfig(reservoir_capacity=60, seed=9, strict=False)
FAST = SupervisorConfig(timeout=20.0, max_attempts=3, backoff=0.01)
# A 3-worker pipeline takes well under a second to start on a 2-vCPU
# VM; 5 s leaves room for a loaded host and still cuts a 60-s hang.
HANG = SupervisorConfig(timeout=5.0, max_attempts=2, backoff=0.01)


@pytest.fixture(scope="module")
def events():
    graph = planted_partition(90, 3, p_in=0.3, p_out=0.02, seed=21)
    stream = list(insert_delete_stream(graph.edges, churn=0.3, seed=21))
    # Vertex events exercise the broadcast-barrier path.
    stream.insert(40, (EventKind.ADD_VERTEX, 9999, None))
    stream.append((EventKind.DELETE_VERTEX, 9999, None))
    return stream


@pytest.fixture(scope="module")
def sequential(events):
    """Sequential sharded reference results, one per config and worker
    count."""
    cache = {}

    def build(workers: int, config: ClustererConfig = CONFIG) -> ShardedClusterer:
        key = (workers, id(config))
        if key not in cache:
            cache[key] = ShardedClusterer(config, num_shards=workers).process(
                list(events), batch_size=64
            )
        return cache[key]

    return build


def make_pipeline(workers, config=CONFIG, **kwargs) -> PipelineClusterer:
    kwargs.setdefault("supervisor", FAST)
    return PipelineClusterer(config, workers, **kwargs)


# (workers, batch_events, max_frame_bytes); 128-byte frames force codec
# splits.
_SWEEP = [(1, 7, 256 * 1024), (2, 1, 256 * 1024), (3, 64, 256 * 1024), (3, 1000, 128)]


def test_inlined_routing_matches(events):
    """The producer inlines ``_shard_of`` (key cache + splitmix64); its
    per-shard event counts must match the shared routing definition."""
    from repro.core.sharded import _shard_of
    from repro.streams.events import canonical_edge

    with make_pipeline(3, batch_events=64) as pipe:
        pipe.apply_many(list(events))
        expected = [0, 0, 0]
        for event in events:
            kind = event[0] if type(event) is tuple else event.kind
            if kind in (EventKind.ADD_EDGE, EventKind.DELETE_EDGE):
                u, v = (
                    (event[1], event[2])
                    if type(event) is tuple
                    else (event.u, event.v)
                )
                expected[_shard_of(canonical_edge(u, v), 3)] += 1
            else:
                for shard in range(3):
                    expected[shard] += 1
        assert pipe.shard_events == expected


class TestEquivalence:
    @pytest.mark.parametrize(
        "config,workers,batch_events,max_frame_bytes",
        [pytest.param(CONFIG, *case, id="-".join(map(str, case))) for case in _SWEEP]
        + [
            pytest.param(
                UNCONSTRAINED, *case, id="unconstrained-" + "-".join(map(str, case))
            )
            for case in _SWEEP
        ],
    )
    def test_matches_sequential_sharded(
        self, tmp_path, events, sequential, config, workers, batch_events,
        max_frame_bytes,
    ):
        reference = sequential(workers, config)
        with make_pipeline(
            workers, config, batch_events=batch_events, max_frame_bytes=max_frame_bytes
        ) as pipe:
            pipe.process(list(events))
            assert pipe.snapshot() == reference.snapshot()
            assert pipe.shard_events == reference.shard_events
            seq_path = tmp_path / "seq.rpk"
            pipe_path = tmp_path / "pipe.rpk"
            save_checkpoint(reference, seq_path, position=len(events))
            save_checkpoint(pipe, pipe_path, position=len(events))
        assert seq_path.read_bytes() == pipe_path.read_bytes()

    def test_strict_vertex_deletion_skips_shards_without_the_vertex(
        self, tmp_path
    ):
        """Vertex 2 lives only in shard 1. The broadcast DELETE_VERTEX
        reaches shards 0 and 2 too, and a strict shard skips it there, as
        ShardedClusterer does, instead of failing its worker."""
        config = ClustererConfig(reservoir_capacity=10, seed=4, strict=True)
        add = EventKind.ADD_EDGE
        stream = [
            (add, 1, 2),
            (add, 2, 3),
            (add, 3, 4),
            (add, 10, 11),
            (EventKind.DELETE_VERTEX, 2, None),
        ]
        reference = ShardedClusterer(config, num_shards=3)
        reference.apply_many(stream[:-1])
        assert [shard.graph.has_vertex(2) for shard in reference.shards] == [
            False, True, False,
        ]
        reference.apply_many(stream[-1:])
        seq_path = tmp_path / "seq.rpk"
        pipe_path = tmp_path / "pipe.rpk"
        save_checkpoint(reference, seq_path, position=len(stream))
        with make_pipeline(3, config) as pipe:
            pipe.process(stream)
            assert pipe.snapshot() == reference.snapshot()
            save_checkpoint(pipe, pipe_path, position=len(stream))
            assert pipe.shard_attempts == [1, 1, 1]
        assert seq_path.read_bytes() == pipe_path.read_bytes()

    def test_pipeline_checkpoint_restores_as_sharded(
        self, tmp_path, events, sequential
    ):
        path = tmp_path / "pipe.rpk"
        with make_pipeline(3, batch_events=32) as pipe:
            pipe.process(list(events))
            save_checkpoint(pipe, path, position=len(events))
        restored = load_checkpoint(path)
        assert restored.kind == "clusterer.sharded"
        assert isinstance(restored.clusterer, ShardedClusterer)
        assert restored.clusterer.snapshot() == sequential(3).snapshot()

    def test_columnar_input_matches_sequential_sharded(self, sequential):
        """EventColumns routes as v3 frames; same merged partition and
        checkpoint state as a sequential sharded run of the tuples."""
        from repro.streams.events import EventColumns

        graph = planted_partition(90, 3, p_in=0.3, p_out=0.02, seed=21)
        edges = list(graph.edges)
        columns = EventColumns(
            us=[u for u, _ in edges], vs=[v for _, v in edges]
        )
        reference = ShardedClusterer(CONFIG, num_shards=3)
        reference.apply_many(columns.to_events())
        with make_pipeline(3, batch_events=64) as pipe:
            pipe.apply_many(columns)
            assert pipe.snapshot() == reference.snapshot()
            assert pipe.shard_events == reference.shard_events
            assert pipe.frames_sent > 0

    def test_columnar_numpy_kernel_deterministic(self):
        """With kernel='numpy' the columnar wire path is a deterministic
        function of (seed, stream, frame boundaries)."""
        from dataclasses import replace

        from repro.streams.events import EventColumns

        graph = planted_partition(90, 3, p_in=0.3, p_out=0.02, seed=21)
        edges = list(graph.edges)
        columns = EventColumns(
            us=[u for u, _ in edges], vs=[v for _, v in edges]
        )
        config = replace(CONFIG, kernel="numpy")
        snapshots = []
        for _ in range(2):
            with PipelineClusterer(
                config, 3, batch_events=64, supervisor=FAST
            ) as pipe:
                pipe.apply_many(columns)
                snapshots.append(pipe.snapshot())
        assert snapshots[0] == snapshots[1]

    def test_query_surface_matches_sharded(self, events, sequential):
        reference = sequential(2)
        with make_pipeline(2, batch_events=16) as pipe:
            pipe.process(list(events))
            merged = reference.snapshot()
            some = next(iter(merged.vertices()))
            assert pipe.cluster_members(some) == reference.cluster_members(some)
            assert pipe.num_clusters == reference.num_clusters
            assert pipe.total_reservoir_size == reference.total_reservoir_size
            assert pipe.shard_balance == reference.shard_balance
            for u, v in list(reference.shards[0].reservoir_edges())[:5]:
                assert pipe.same_cluster(u, v)


class TestMidStreamCheckpoint:
    def test_periodic_checkpointer_resume_replay_identical(
        self, tmp_path, events, sequential
    ):
        path = tmp_path / "mid.rpk"
        cut = len(events) // 2
        with make_pipeline(3, batch_events=17) as pipe:
            checkpointer = PeriodicCheckpointer(pipe, path, every=50)
            checkpointer.process(events[:cut], batch_size=17)
        # Crash: the run above stops mid-stream. Resume from the last
        # durable save and replay the tail pipelined.
        restored = load_checkpoint(path)
        assert restored.position == cut - cut % 50
        with PipelineClusterer.from_state(
            restored.clusterer.get_state(), batch_events=17, supervisor=FAST
        ) as resumed:
            resumed.process(events[restored.position :])
            assert resumed.snapshot() == sequential(3).snapshot()
            final = tmp_path / "final.rpk"
            save_checkpoint(resumed, final, position=len(events))
        reference = tmp_path / "ref.rpk"
        save_checkpoint(sequential(3), reference, position=len(events))
        assert final.read_bytes() == reference.read_bytes()

    def test_from_state_roundtrip_mid_stream(self, events, sequential):
        cut = len(events) // 3
        state = None
        with make_pipeline(3, batch_events=8) as pipe:
            pipe.process(events[:cut])
            state = pipe.get_state()
        with PipelineClusterer.from_state(
            state, batch_events=64, supervisor=FAST
        ) as resumed:
            resumed.process(events[cut:])
            assert resumed.snapshot() == sequential(3).snapshot()
            assert resumed.shard_events == sequential(3).shard_events

    def test_from_state_shard_count_mismatch_rejected(self, events):
        with make_pipeline(2) as pipe:
            pipe.process(events[:50])
            state = pipe.get_state()
        state["num_shards"] = 3
        with pytest.raises(ValueError, match="shard states"):
            PipelineClusterer.from_state(state)


class TestFaultTolerance:
    def test_startup_crash_is_retried_and_result_unaffected(
        self, events, sequential
    ):
        with make_pipeline(
            3, batch_events=32, fault=CrashShard(shard=1, fail_attempts=1)
        ) as pipe:
            pipe.process(list(events))
            assert pipe.snapshot() == sequential(3).snapshot()
            assert pipe.shard_attempts[1] == 2
            assert pipe.shard_attempts[0] == 1 and pipe.shard_attempts[2] == 1
            assert pipe.worker_restarts >= 1

    def test_hard_startup_crash_is_retried(self, events, sequential):
        """os._exit at startup sends no reply: the parent sees the pipe
        close and respawns the worker."""
        with make_pipeline(
            3,
            batch_events=32,
            fault=CrashShard(shard=0, fail_attempts=1, hard=True),
        ) as pipe:
            pipe.process(list(events))
            assert pipe.snapshot() == sequential(3).snapshot()
            assert pipe.shard_attempts == [2, 1, 1]

    def test_startup_hang_is_terminated_and_retried(self, events, sequential):
        start = time.monotonic()
        with make_pipeline(
            3,
            batch_events=32,
            fault=HangShard(shard=2, seconds=60.0, fail_attempts=1),
            supervisor=HANG,
        ) as pipe:
            pipe.process(list(events))
            assert pipe.snapshot() == sequential(3).snapshot()
            assert pipe.shard_attempts == [1, 1, 2]
        assert time.monotonic() - start < 30.0  # nowhere near the 60-s hang

    def test_failed_shard_keeps_surviving_vertices(self, events, sequential):
        with pytest.warns(RuntimeWarning, match="shard 0 failed permanently"):
            with make_pipeline(
                3,
                batch_events=32,
                fault=CrashShard(shard=0, fail_attempts=99),
                supervisor=SupervisorConfig(timeout=20.0, max_attempts=1),
            ) as pipe:
                pipe.process(list(events))
                surviving = set(pipe.snapshot().vertices())
        for shard in sequential(3).shards[1:]:
            assert surviving >= set(shard.vertices())

    def test_worker_death_mid_stream_is_replayed(self, events, sequential):
        cut = len(events) // 2
        with make_pipeline(3, batch_events=16) as pipe:
            pipe.process(events[:cut])
            # Kill one worker the hard way; the next send or control
            # round-trip must revive it and replay the frame log.
            victim = pipe._procs[1]
            victim.terminate()
            victim.join()
            pipe.process(events[cut:])
            assert pipe.snapshot() == sequential(3).snapshot()
            assert pipe.shard_attempts[1] == 2
            assert not any(pipe._failed)

    def test_death_after_checkpoint_replays_only_the_tail(
        self, tmp_path, events, sequential
    ):
        cut = len(events) // 2
        with make_pipeline(3, batch_events=16) as pipe:
            pipe.process(events[:cut])
            save_checkpoint(pipe, tmp_path / "base.rpk", position=cut)
            # The checkpoint fetch rebased every shard's recovery log.
            assert all(not log for log in pipe._log)
            victim = pipe._procs[0]
            victim.terminate()
            victim.join()
            pipe.process(events[cut:])
            assert pipe.snapshot() == sequential(3).snapshot()

    def test_permanent_failure_degrades_gracefully(self, events, sequential):
        with pytest.warns(RuntimeWarning, match="shard 1 failed permanently"):
            with make_pipeline(
                3,
                batch_events=32,
                fault=CrashShard(shard=1, fail_attempts=99),
                supervisor=SupervisorConfig(
                    timeout=20.0, max_attempts=2, backoff=0.01
                ),
            ) as pipe:
                pipe.process(list(events))
                partition = pipe.snapshot()
                assert pipe._failed[1] and pipe.shard_attempts[1] == 2
                assert pipe.dropped_events > 0
                # Losing a shard's sample can only remove merges.
                assert (
                    partition.num_clusters > sequential(3).snapshot().num_clusters
                )
                with pytest.raises(CheckpointError, match="degraded"):
                    pipe.get_state()


_SUPERVISOR_COUNTERS = (
    "attempts", "retries", "timeouts", "worker_deaths", "degradations",
)


@pytest.mark.parametrize(
    "fault,supervisor,kill,expected",
    [
        pytest.param(None, FAST, False, (3, 0, 0, 0, 0), id="clean"),
        pytest.param(
            CrashShard(shard=1), FAST, False, (4, 1, 0, 0, 0),
            id="soft-startup-crash",
        ),
        pytest.param(
            CrashShard(shard=0, hard=True), FAST, False, (4, 1, 0, 0, 0),
            id="hard-startup-crash",
        ),
        pytest.param(
            HangShard(shard=2, seconds=60.0), HANG, False, (4, 1, 1, 0, 0),
            id="startup-hang",
        ),
        pytest.param(
            CrashShard(shard=1, fail_attempts=99),
            SupervisorConfig(timeout=20.0, max_attempts=2, backoff=0.01),
            False,
            (4, 1, 0, 0, 1),
            id="permanent",
        ),
        pytest.param(None, FAST, True, (4, 1, 0, 1, 0), id="mid-stream-terminate"),
    ],
)
def test_supervisor_counters(events, fault, supervisor, kill, expected):
    """attempts/retries/timeouts/worker_deaths/degradations per failure
    mode. A worker death is a worker lost after it answered READY; a
    failed startup, first or respawned, is never one."""
    registry = obs.default_registry()
    registry.reset()
    obs.enable()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # "permanent" warns
            with make_pipeline(
                3, batch_events=16, fault=fault, supervisor=supervisor
            ) as pipe:
                cut = len(events) // 2
                pipe.process(events[:cut])
                if kill:
                    victim = pipe._procs[1]
                    victim.terminate()
                    victim.join()
                pipe.process(events[cut:])
                pipe.snapshot()
        counts = tuple(
            registry.counter(f"supervisor.{name}").value
            for name in _SUPERVISOR_COUNTERS
        )
    finally:
        obs.disable()
        registry.reset()
    assert counts == expected


class TestLifecycle:
    def test_close_is_idempotent_and_blocks_ingestion(self, events):
        pipe = make_pipeline(2)
        pipe.process(events[:20])
        pipe.close()
        pipe.close()
        assert all(proc is None for proc in pipe._procs)
        with pytest.raises(RuntimeError, match="closed"):
            pipe.apply_many(events[:2])

    def test_progress_snapshot_is_barrier_free(self, events):
        with make_pipeline(2, batch_events=8) as pipe:
            pipe.apply_many(events[:60])
            # No merge cached yet: the report must not force a barrier.
            assert pipe.approx_num_clusters is None
            assert pipe.progress_snapshot() == {}
            clusters = pipe.num_clusters  # explicit barrier
            assert pipe.progress_snapshot() == {"clusters": clusters}

    def test_worker_metrics_shape(self, events):
        with make_pipeline(2, batch_events=8) as pipe:
            pipe.apply_many(events[:60])
            payloads = pipe.worker_metrics()
            assert len(payloads) == 2
            assert sum(p["events_applied"] for p in payloads) >= 60
            for payload in payloads:
                assert payload["busy_seconds"] >= 0.0
                assert payload["cpu_seconds"] > 0.0
                assert "admissions" in payload["stats"]
                assert "partition_builds" in payload["probes"]

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            PipelineClusterer(CONFIG, 0)
        with pytest.raises(ValueError):
            PipelineClusterer(CONFIG, 2, batch_events=0, start=False)

    def test_self_loop_rejected_at_routing(self):
        with make_pipeline(2) as pipe:
            with pytest.raises(ValueError, match="self-loop"):
                pipe.apply((EventKind.ADD_EDGE, 5, 5))


class TestCloseAccounting:
    """close() must not silently lose buffered events (drops + warning)."""

    def _edge_stream(self, n=60):
        graph = planted_partition(n, 3, p_in=0.4, p_out=0.02, seed=3)
        return [(EventKind.ADD_EDGE, u, v) for u, v in graph.edges]

    def test_close_accounts_buffer_stranded_on_degraded_shard(self):
        stream = self._edge_stream()
        with pytest.warns(RuntimeWarning, match="failed permanently"):
            pipe = make_pipeline(
                1,
                batch_events=8,
                fault=CrashShard(shard=0, fail_attempts=99),
                supervisor=SupervisorConfig(
                    timeout=20.0, max_attempts=2, backoff=0.01
                ),
            )
            try:
                # 21 events: two flushes hit the dead worker and degrade
                # the shard (their drops are counted at flush time); the
                # remaining tail is stranded in the producer buffer.
                pipe.apply_many(stream[:21])
                assert pipe._failed[0]
                stranded = len(pipe._buffers[0])
                assert stranded > 0
                before = pipe.dropped_events
                pipe.close()
            finally:
                pipe.close()
        assert pipe.dropped_events == before + stranded

    def test_close_counts_events_lost_on_broken_worker_pipe(self):
        stream = self._edge_stream()
        pipe = make_pipeline(1)  # default batch_events: nothing flushes
        try:
            pipe.apply_many(stream[:12])
            assert pipe.dropped_events == 0
            victim = pipe._procs[0]
            victim.kill()
            victim.join()
            with pytest.warns(RuntimeWarning, match="failed while flushing"):
                pipe.close()
            assert pipe.dropped_events == 12
        finally:
            pipe.close()
