"""Unit tests for the checkpoint container format and save/load API."""

import os
import random
from dataclasses import fields

import pytest

from repro.core import (
    ClustererConfig,
    PipelineClusterer,
    ShardedClusterer,
    StreamingGraphClusterer,
)
from repro.core.config import DeletionPolicy
from repro.errors import CheckpointError
from repro.persist import (
    PeriodicCheckpointer,
    load_checkpoint,
    save_checkpoint,
    read_container,
    write_container,
)
from repro.persist.format import HEADER_SIZE, MAGIC, decode_container, encode_container
from repro.streams import add_edge, delete_edge, insert_delete_stream, planted_partition
from repro.util.faults import (
    FlakyOpen,
    SimulatedCrash,
    corrupt_checkpoint,
    kill_at_event,
    truncate_file,
)


@pytest.fixture
def churn_events():
    graph = planted_partition(80, 4, p_in=0.3, p_out=0.02, seed=13)
    return insert_delete_stream(graph.edges, churn=0.4, seed=13)


def make_clusterer(**kwargs) -> StreamingGraphClusterer:
    defaults = dict(reservoir_capacity=100, seed=7, strict=False)
    defaults.update(kwargs)
    return StreamingGraphClusterer(ClustererConfig(**defaults))


class TestContainerFormat:
    def test_bytes_roundtrip(self):
        payload = {"hello": [1, 2, ("a", "b")], "n": 42}
        assert decode_container(encode_container(payload)) == payload

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "ck"
        payload = {"x": 1}
        size = write_container(path, payload)
        assert os.path.getsize(path) == size
        assert read_container(path) == payload

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_container(tmp_path / "absent")

    def test_alien_file_rejected(self, tmp_path):
        path = tmp_path / "alien"
        path.write_bytes(b"x" * 100)
        with pytest.raises(CheckpointError, match="bad magic"):
            read_container(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(CheckpointError, match="too short"):
            read_container(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future"
        data = bytearray(encode_container({"x": 1}))
        data[8:10] = (99).to_bytes(2, "big")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version 99"):
            read_container(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "ck"
        write_container(path, {"data": list(range(1000))})
        truncate_file(path, os.path.getsize(path) - 7)
        with pytest.raises(CheckpointError, match="truncated"):
            read_container(path)

    def test_truncated_to_header_rejected(self, tmp_path):
        path = tmp_path / "ck"
        write_container(path, {"data": "abc"})
        truncate_file(path, HEADER_SIZE)
        with pytest.raises(CheckpointError, match="truncated"):
            read_container(path)

    def test_flipped_payload_byte_rejected(self, tmp_path):
        path = tmp_path / "ck"
        write_container(path, {"data": list(range(1000))})
        corrupt_checkpoint(path)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            read_container(path)

    def test_every_flipped_byte_is_detected(self, tmp_path):
        """No single-byte corruption anywhere in the file loads silently."""
        path = tmp_path / "ck"
        write_container(path, {"data": list(range(50))})
        size = os.path.getsize(path)
        for offset in range(0, size, 7):
            write_container(path, {"data": list(range(50))})
            corrupt_checkpoint(path, offset=offset)
            with pytest.raises(CheckpointError):
                read_container(path)

    def test_non_dict_payload_rejected(self, tmp_path):
        import pickle
        import struct
        import zlib

        body = pickle.dumps([1, 2, 3])
        header = struct.pack(">8sHQI", MAGIC, 1, len(body), zlib.crc32(body))
        path = tmp_path / "ck"
        path.write_bytes(header + body)
        with pytest.raises(CheckpointError, match="unexpected payload type"):
            read_container(path)

    def test_atomic_write_keeps_previous_on_failure(self, tmp_path, monkeypatch):
        import repro.persist.format as fmt

        path = tmp_path / "ck"
        write_container(path, {"generation": 1})
        monkeypatch.setattr(fmt, "open", FlakyOpen(failures=1), raising=False)
        with pytest.raises(OSError, match="injected IO fault"):
            write_container(path, {"generation": 2})
        # The old checkpoint survives and no temp litter remains.
        assert read_container(path) == {"generation": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]


class TestSaveLoad:
    def test_single_roundtrip(self, tmp_path, churn_events):
        clusterer = make_clusterer().process(churn_events)
        path = tmp_path / "ck"
        save_checkpoint(clusterer, path, position=len(churn_events))
        restored = load_checkpoint(path)
        assert restored.kind == "clusterer.single"
        assert restored.position == len(churn_events)
        assert restored.clusterer.snapshot() == clusterer.snapshot()
        assert restored.clusterer.stats.as_dict() == clusterer.stats.as_dict()
        assert restored.clusterer.reservoir_edges() == clusterer.reservoir_edges()
        assert restored.clusterer.graph.num_edges == clusterer.graph.num_edges

    def test_sharded_roundtrip(self, tmp_path, churn_events):
        sharded = ShardedClusterer(
            ClustererConfig(reservoir_capacity=200, seed=3, strict=False), 4
        ).process(churn_events)
        path = tmp_path / "ck"
        save_checkpoint(sharded, path, position=len(churn_events))
        restored = load_checkpoint(path)
        assert restored.kind == "clusterer.sharded"
        assert restored.clusterer.snapshot() == sharded.snapshot()
        assert restored.clusterer.shard_events == sharded.shard_events
        assert restored.clusterer.total_reservoir_size == sharded.total_reservoir_size

    def test_lean_mode_roundtrip(self, tmp_path):
        clusterer = make_clusterer(track_graph=False)
        clusterer.process([add_edge(i, i + 1) for i in range(50)])
        path = tmp_path / "ck"
        save_checkpoint(clusterer, path)
        restored = load_checkpoint(path).clusterer
        assert restored.graph is None
        assert restored.snapshot() == clusterer.snapshot()

    def test_string_vertices_roundtrip(self, tmp_path):
        clusterer = make_clusterer()
        clusterer.process([add_edge(f"u{i}", f"u{i+1}") for i in range(30)])
        clusterer.apply(delete_edge("u3", "u4"))
        path = tmp_path / "ck"
        save_checkpoint(clusterer, path)
        assert load_checkpoint(path).clusterer.snapshot() == clusterer.snapshot()

    def test_wrong_object_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            save_checkpoint(object(), tmp_path / "ck")

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "ck"
        write_container(
            path, {"state_version": 1, "kind": "clusterer.quantum", "position": 0,
                   "state": {}}
        )
        with pytest.raises(CheckpointError, match="unknown checkpoint kind"):
            load_checkpoint(path)

    def test_unknown_state_version_rejected(self, tmp_path):
        path = tmp_path / "ck"
        write_container(
            path, {"state_version": 999, "kind": "clusterer.single", "position": 0,
                   "state": {}}
        )
        with pytest.raises(CheckpointError, match="state version 999"):
            load_checkpoint(path)

    def test_structurally_invalid_state_rejected(self, tmp_path):
        path = tmp_path / "ck"
        write_container(
            path, {"state_version": 1, "kind": "clusterer.single", "position": 0,
                   "state": {"config": None}}
        )
        with pytest.raises(CheckpointError, match="invalid checkpoint state"):
            load_checkpoint(path)

    def test_corrupted_clusterer_checkpoint_never_loads(self, tmp_path, churn_events):
        path = tmp_path / "ck"
        save_checkpoint(make_clusterer().process(churn_events), path)
        corrupt_checkpoint(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestPeriodicCheckpointer:
    def test_initial_save_makes_early_crash_recoverable(self, tmp_path):
        path = tmp_path / "ck"
        PeriodicCheckpointer(make_clusterer(), path, every=100)
        restored = PeriodicCheckpointer.resume(path)
        assert restored.position == 0

    def test_saves_at_interval(self, tmp_path):
        path = tmp_path / "ck"
        pc = PeriodicCheckpointer(make_clusterer(), path, every=10)
        pc.process([add_edge(i, i + 1) for i in range(35)])
        assert pc.saves == 1 + 3  # initial + events 10, 20, 30
        assert load_checkpoint(path).position == 30

    def test_every_zero_only_saves_explicitly(self, tmp_path):
        path = tmp_path / "ck"
        pc = PeriodicCheckpointer(make_clusterer(), path, every=0)
        pc.process([add_edge(i, i + 1) for i in range(25)])
        assert pc.saves == 1  # just the initial one
        pc.save()
        assert load_checkpoint(path).position == 25

    def test_crash_restore_replay_identical(self, tmp_path, churn_events):
        full = make_clusterer().process(churn_events)

        path = tmp_path / "ck"
        pc = PeriodicCheckpointer(make_clusterer(), path, every=50)
        with pytest.raises(SimulatedCrash):
            pc.process(kill_at_event(churn_events, 333))
        # The in-memory clusterer is gone with the crash; recover from disk.
        resumed = PeriodicCheckpointer.resume(path, every=50)
        assert resumed.position == 300  # latest multiple of 50 before the kill
        resumed.process(resumed.remaining(churn_events))
        assert resumed.position == len(churn_events)
        assert resumed.clusterer.snapshot() == full.snapshot()
        assert resumed.clusterer.stats.as_dict() == full.stats.as_dict()
        assert resumed.clusterer.reservoir_edges() == full.reservoir_edges()

    def test_negative_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            PeriodicCheckpointer(make_clusterer(), tmp_path / "ck", every=-1)


def make_legacy_state(
    state: dict, backend: str = "hdt", policy=DeletionPolicy.RANDOM_PAIRING
) -> None:
    """Rewrite a clusterer or sharded state in place as an older release
    wrote it: every pickled config still carries the retired fields
    (the connectivity backend, ``deletion_policy``, ``resample_threshold``
    and ``batch_fast_path``), and every clusterer state the lazy
    backend's cache flag, the rebuild RNG's state and a ``resamples``
    stat."""
    clusterer_states = state.get("shards", [state])
    for config in [state["config"]] + [cs["config"] for cs in clusterer_states]:
        vars(config).update(
            connectivity_backend=backend,
            deletion_policy=policy,
            resample_threshold=0.5,
            batch_fast_path=True,
        )
    for clusterer_state in clusterer_states:
        clusterer_state["conn_dirty"] = True
        clusterer_state["rebuild_rng_state"] = random.Random(0).getstate()
        clusterer_state["stats"]["resamples"] = 0


def make_legacy(path, backend: str = "hdt", policy=DeletionPolicy.RANDOM_PAIRING):
    """Rewrite the checkpoint at ``path`` with :func:`make_legacy_state`."""
    payload = read_container(path)
    make_legacy_state(payload["state"], backend, policy)
    write_container(path, payload)


def assert_current_state(state: dict) -> None:
    """A state written by this release carries no retired field or key."""
    current = {f.name for f in fields(ClustererConfig)}
    clusterer_states = state.get("shards", [state])
    for config in [state["config"]] + [cs["config"] for cs in clusterer_states]:
        assert set(vars(config)) == current
    for clusterer_state in clusterer_states:
        assert "conn_dirty" not in clusterer_state
        assert "rebuild_rng_state" not in clusterer_state
        assert "resamples" not in clusterer_state["stats"]


class TestLegacyCheckpoints:
    @pytest.mark.parametrize("kernel", ["scalar", "numpy"])
    @pytest.mark.parametrize("backend", ["hdt", "lazy"])
    def test_backend_field_is_dropped_and_resume_is_identical(
        self, tmp_path, churn_events, backend, kernel
    ):
        full = make_clusterer(kernel=kernel).process(churn_events, batch_size=64)
        path = tmp_path / "legacy.ckpt"
        # On a batch boundary: the numpy kernel's draws depend on them.
        cut = len(churn_events) // 2 // 64 * 64
        head = make_clusterer(kernel=kernel).process(
            churn_events[:cut], batch_size=64
        )
        save_checkpoint(head, path, position=cut)
        make_legacy(path, backend)

        checkpoint = load_checkpoint(path)
        restored = checkpoint.clusterer
        assert repr(restored.config) == repr(head.config)
        restored.process(checkpoint.remaining(churn_events), batch_size=64)
        assert restored.snapshot() == full.snapshot()
        assert restored.stats.as_dict() == full.stats.as_dict()
        assert restored.reservoir_edges() == full.reservoir_edges()

        save_checkpoint(restored, path, position=len(churn_events))
        assert_current_state(read_container(path)["state"])

    def test_pipeline_resume_of_legacy_sharded_state_drops_retired_fields(
        self, tmp_path, churn_events
    ):
        config = ClustererConfig(reservoir_capacity=90, seed=7, strict=False)
        full = ShardedClusterer(config, 3).process(churn_events, batch_size=64)
        path = tmp_path / "legacy.ckpt"
        cut = len(churn_events) // 2
        head = ShardedClusterer(config, 3).process(
            churn_events[:cut], batch_size=64
        )
        save_checkpoint(head, path, position=cut)
        make_legacy(path)

        with PipelineClusterer.from_state(
            read_container(path)["state"], batch_events=64
        ) as pipeline:
            assert repr(pipeline.config) == repr(config)
            pipeline.process(churn_events[cut:], batch_size=64)
            assert pipeline.snapshot() == full.snapshot()
            save_checkpoint(pipeline, path, position=len(churn_events))
        assert_current_state(read_container(path)["state"])

    @pytest.mark.parametrize("sharded", [False, True])
    def test_resample_checkpoint_is_refused(self, tmp_path, sharded):
        config = ClustererConfig(reservoir_capacity=10, strict=False)
        clusterer = (
            ShardedClusterer(config, 2)
            if sharded
            else StreamingGraphClusterer(config)
        )
        clusterer.process([add_edge(i, i + 1) for i in range(30)])
        path = tmp_path / "resample.ckpt"
        save_checkpoint(clusterer, path, position=30)
        make_legacy(path, policy=DeletionPolicy.RESAMPLE)
        with pytest.raises(CheckpointError, match="retired RESAMPLE"):
            load_checkpoint(path)


class TestCanonicalize:
    def test_equal_values_become_shared_objects(self):
        from repro.persist import canonicalize
        import pickle

        a = {"x": ("v" + str(1), 2.5), "y": ("v1", 2.5)}
        b = {"x": ("v1", 2.5), "y": ("v1", 2.5)}
        assert pickle.dumps(a, protocol=4) != pickle.dumps(b, protocol=4)
        ca, cb = canonicalize(a), canonicalize(b)
        assert ca == a and cb == b
        assert pickle.dumps(ca, protocol=4) == pickle.dumps(cb, protocol=4)
        assert ca["x"] is ca["y"]

    def test_preserves_values_and_order(self):
        from repro.persist import canonicalize

        payload = {
            "ints": [1, 2, 3],
            "floats": [0.0, -0.0, float("inf")],
            "nested": ({"k": (True, None, b"raw")},),
            "text": "naïve",
        }
        result = canonicalize(payload)
        assert result == payload
        assert list(result) == list(payload)
        assert repr(result["floats"]) == repr(payload["floats"])

    def test_true_and_one_stay_distinct(self):
        from repro.persist import canonicalize

        result = canonicalize([(True, 0), (1, False)])
        assert result[0][0] is True and result[1][0] == 1
        assert result[0][0] is not result[1][0] or True != 1

    def test_unknown_objects_pass_through_untouched(self):
        from repro.persist import canonicalize

        config = ClustererConfig(reservoir_capacity=10)
        result = canonicalize({"config": config, "pair": (config, "x")})
        assert result["config"] is config
        assert result["pair"][0] is config
