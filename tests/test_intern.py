"""Dense-id hot path: interning, delta codec, and format compatibility.

Covers the PR-5 contracts end to end:

* :class:`VertexInterner` determinism and state round-trips,
* the stateful delta codec (``FrameEncoder``/``DeltaBatchDecoder``) —
  round-trip exactness, per-connection tables, primed-table resync,
  error rollback — including non-ASCII and out-of-64-bit-range integer
  labels, and a pipeline worker's path (decode, then ``apply_many``)
  ending in the inline state on both kernels,
* version-1 (pre-intern) clusterer checkpoints loading into the
  format-2 clusterer,
* pipeline and sequential sharded execution resuming *each other's*
  checkpoint files,
* ``AdjacencyGraph.neighbors`` returning a read-only view, and
* ``__slots__`` on the hot per-event classes staying picklable.
"""

import pickle

import pytest

from repro.core import (
    ClustererConfig,
    PipelineClusterer,
    ShardedClusterer,
    StreamingGraphClusterer,
)
from repro.core.clusterer import STATE_FORMAT
from repro.graph import AdjacencyGraph, MAX_VERTEX_ID, VertexInterner
from repro.persist import load_checkpoint, save_checkpoint
from repro.sampling.random_pairing import (
    InsertProposal,
    PackedEdgeReservoir,
    RandomPairingReservoir,
)
from repro.streams import insert_delete_stream, planted_partition
from repro.streams.codec import DELTA_CODEC_VERSION, DeltaBatchDecoder, FrameEncoder
from repro.streams.events import EdgeEvent, EventColumns, EventKind

ADD = EventKind.ADD_EDGE
DEL = EventKind.DELETE_EDGE
ADDV = EventKind.ADD_VERTEX
DELV = EventKind.DELETE_VERTEX

#: Labels exercising every wire-entry tag: utf-8 strings (non-ASCII),
#: in-range ints, negative ints, and ints outside the signed 64-bit
#: range (decimal-digit entries).
EXOTIC_LABELS = ["café", "日本語-頂点", -17, 0, (1 << 80) + 3, -(1 << 90), "plain"]


def exotic_stream():
    """A small edge/vertex stream over the exotic labels."""
    a, b, c, d, e, f, g = EXOTIC_LABELS
    return [
        (ADD, a, b),
        (ADD, b, c),
        (ADDV, d, None),
        (ADD, c, d),
        (ADD, d, e),
        (DEL, b, c),
        (ADD, e, f),
        (ADD, f, g),
        (ADD, a, g),
        (DELV, e, None),
        (ADD, a, c),
    ]


class TestVertexInterner:
    def test_dense_first_appearance_ids(self):
        interner = VertexInterner()
        assert [interner.intern(x) for x in ("b", "a", "b", "c")] == [0, 1, 0, 2]
        assert interner.labels() == ["b", "a", "c"]
        assert len(interner) == 3
        assert "a" in interner and "z" not in interner

    def test_lookup_contracts(self):
        interner = VertexInterner(["x", 42])
        assert interner.id_of("x") == 0
        assert interner.id_of("missing") is None
        assert interner.label_of(1) == 42
        with pytest.raises(IndexError):
            interner.label_of(7)

    def test_state_roundtrip_preserves_order(self):
        interner = VertexInterner(EXOTIC_LABELS)
        restored = VertexInterner.from_state(interner.get_state())
        assert restored.labels() == interner.labels()
        for label in EXOTIC_LABELS:
            assert restored.id_of(label) == interner.id_of(label)

    def test_duplicate_state_rejected(self):
        with pytest.raises(ValueError, match="duplicate label"):
            VertexInterner.from_state({"labels": ["a", "b", "a"]})

    def test_max_id_is_packable(self):
        # Two ids must pack into one 64-bit edge key.
        assert (MAX_VERTEX_ID << 32) | MAX_VERTEX_ID < (1 << 64)


class TestDeltaCodec:
    def test_roundtrip_with_exotic_labels(self):
        encoder = FrameEncoder()
        decoder = DeltaBatchDecoder()
        stream = exotic_stream()
        frame = encoder.encode_batch(stream)
        assert frame[0] == DELTA_CODEC_VERSION
        # Labels come back exactly as sent: only the clusterer
        # canonicalizes and interns them.
        assert decoder.decode(frame) == stream

    def test_second_frame_ships_no_repeated_entries(self):
        encoder = FrameEncoder()
        decoder = DeltaBatchDecoder()
        first = encoder.encode_batch([(ADD, "alpha", "beta")])
        table_after_first = encoder.table_size
        second = encoder.encode_batch([(DEL, "alpha", "beta")])
        assert encoder.table_size == table_after_first  # nothing new
        assert len(second) < len(first)  # no label bytes on the wire
        decoder.decode(first)
        assert decoder.decode(second) == [(DEL, "alpha", "beta")]
        assert decoder.table_size == encoder.table_size

    def test_primed_tables_resync(self):
        """A respawned pipeline worker primes its reader with the
        encoder's table snapshot; later v2 and v3 frames address the
        primed entries."""
        base = ["u", "v", 12]
        encoder = FrameEncoder(base)
        decoder = DeltaBatchDecoder(encoder.table())
        frame = encoder.encode_batch([(ADD, "u", "w"), (ADD, 12, "v")])
        assert decoder.decode(frame) == [(ADD, "u", "w"), (ADD, 12, "v")]
        assert decoder.table_size == encoder.table_size
        # An all-int primed table feeds the int64 column gather.
        ints = FrameEncoder([7, 3, 12])
        decoder = DeltaBatchDecoder(ints.table())
        (frame,) = ints.encode_columns([3, 12, 40], [7, 3, 3])
        columns = decoder.decode(frame)
        assert columns.us.tolist() == [3, 12, 40]
        assert columns.vs.tolist() == [7, 3, 3]

    def test_encoder_rolls_back_on_unsupported_label(self):
        encoder = FrameEncoder()
        decoder = DeltaBatchDecoder()
        decoder.decode(encoder.encode_batch([(ADD, "a", "b")]))
        before = encoder.table()
        with pytest.raises(TypeError, match="int and str"):
            encoder.encode_batch([(ADD, "a", "c"), (ADD, ("t", 1), "d")])
        assert encoder.table() == before  # staged entries rolled back
        # The encoder is still usable and in sync with the reader.
        frame = encoder.encode_batch([(ADD, "a", "c")])
        assert decoder.decode(frame) == [(ADD, "a", "c")]
        assert decoder.table_size == encoder.table_size

    def test_encode_batches_split_roundtrip(self):
        encoder = FrameEncoder()
        decoder = DeltaBatchDecoder()
        stream = [(ADD, f"vertex-{i}", f"vertex-{i + 1}") for i in range(200)]
        frames = list(encoder.encode_batches(stream, max_bytes=512))
        assert len(frames) > 1
        assert all(len(frame) <= 512 for frame in frames)
        decoded = []
        for frame in frames:
            decoded.extend(decoder.decode(frame))
        assert decoded == stream

    def test_self_loop_stays_label_space(self):
        """A self-loop decodes as labels; applying its frame raises the
        per-event path's error after the events before it, and interns
        nothing from the loop, on either kernel."""
        frame = FrameEncoder().encode_batch([(ADD, "a", "b"), (ADD, "x", "x")])
        batch = DeltaBatchDecoder().decode(frame)
        assert batch == [(ADD, "a", "b"), (ADD, "x", "x")]
        for kernel in ("scalar", "numpy"):
            clusterer = StreamingGraphClusterer(
                ClustererConfig(reservoir_capacity=8, kernel=kernel)
            )
            with pytest.raises(ValueError, match="self-loop"):
                clusterer.apply_many(batch)
            assert clusterer.interner.labels() == ["a", "b"]
            assert clusterer.stats.edge_adds == 1

    def test_worker_path_matches_inline(self):
        """Frames decoded by DeltaBatchDecoder and applied with
        apply_many, a pipeline worker's path, end in the state of an
        inline clusterer fed the same batches, on either kernel: exotic
        labels decode to tuples, 100-event int frames to kind columns,
        and an all-ADD run to version-3 columns."""
        churn = [(event.kind, event.u, event.v) for event in churn_events()]
        run = [(ADD, 100 + i, 101 + i) for i in range(80)]
        forms = set()
        for kernel in ("scalar", "numpy"):
            config = ClustererConfig(
                reservoir_capacity=40, seed=3, strict=False, kernel=kernel
            )
            for stream in (exotic_stream() + run, churn + run):
                inline = StreamingGraphClusterer(config)
                worker = StreamingGraphClusterer(config)
                encoder = FrameEncoder()
                decoder = DeltaBatchDecoder()
                tail = len(stream) - len(run)
                for start in range(0, tail, 100):
                    batch = stream[start : min(start + 100, tail)]
                    inline.apply_many(batch)
                    decoded = decoder.decode(encoder.encode_batch(batch))
                    forms.add(type(decoded))
                    worker.apply_many(decoded)
                inline.apply_many(run)
                (frame,) = encoder.encode_columns(
                    [u for _, u, _ in run], [v for _, _, v in run]
                )
                worker.apply_many(decoder.decode(frame))
                assert worker.get_state() == inline.get_state(), kernel
        assert forms == {list, EventColumns}

    def test_rejects_stateless_v1_frames(self):
        frame = bytearray(FrameEncoder().encode_batch([(ADD, "a", "b")]))
        frame[0] = 1  # the retired stateless format's version byte
        with pytest.raises(ValueError, match="delta codec version"):
            DeltaBatchDecoder().decode(bytes(frame))


def churn_events():
    graph = planted_partition(60, 3, p_in=0.35, p_out=0.03, seed=11)
    return list(insert_delete_stream(graph.edges, churn=0.35, seed=11))


class TestStateFormatCompat:
    def test_state_carries_format_and_intern_table(self):
        clusterer = StreamingGraphClusterer(
            ClustererConfig(reservoir_capacity=40, seed=5, strict=False)
        )
        clusterer.apply_many(churn_events())
        state = clusterer.get_state()
        assert state["format"] == STATE_FORMAT == 2
        assert set(state["intern"]) >= set(state["conn_vertices"])

    def test_v1_checkpoint_loads_into_new_clusterer(self):
        events = churn_events()
        half = len(events) // 2
        original = StreamingGraphClusterer(
            ClustererConfig(reservoir_capacity=40, seed=5, strict=False)
        )
        original.apply_many(events[:half])
        state = original.get_state()
        # A version-1 state is the same label-space payload without the
        # format marker or the intern table.
        v1_state = {
            key: value
            for key, value in state.items()
            if key not in ("format", "intern")
        }
        restored = StreamingGraphClusterer.from_state(v1_state)
        assert restored.snapshot() == original.snapshot()
        assert sorted(restored.reservoir_edges()) == sorted(
            original.reservoir_edges()
        )
        # The tail replays to the identical end state either way.
        original.apply_many(events[half:])
        restored.apply_many(events[half:])
        assert restored.snapshot() == original.snapshot()
        assert restored.get_state() == original.get_state()

    def test_format2_roundtrip_identity(self):
        clusterer = StreamingGraphClusterer(
            ClustererConfig(reservoir_capacity=40, seed=5, strict=False)
        )
        clusterer.apply_many(churn_events())
        restored = StreamingGraphClusterer.from_state(clusterer.get_state())
        assert restored.get_state() == clusterer.get_state()


class TestPipelineInlineCheckpointExchange:
    CONFIG = ClustererConfig(reservoir_capacity=48, seed=13, strict=False)

    @staticmethod
    def exotic_churn():
        events = churn_events()
        # Remap a slice of the integer labels onto exotic ones so the
        # checkpoint files carry non-ASCII and >64-bit labels.
        exotic = {
            i: label for i, label in enumerate(EXOTIC_LABELS) if label != i
        }
        remap = lambda x: exotic.get(x, x)  # noqa: E731
        return [
            (e.kind, remap(e.u), None if e.v is None else remap(e.v))
            for e in events
        ]

    def test_pipeline_resumes_inline_file_and_back(self, tmp_path):
        events = self.exotic_churn()
        half = len(events) // 2
        shards = 2

        sequential = ShardedClusterer(self.CONFIG, num_shards=shards)
        sequential.apply_many(events[:half])
        inline_file = tmp_path / "inline.ckpt"
        save_checkpoint(sequential, inline_file, position=half)

        # Pipeline resumes the sequential file…
        checkpoint = load_checkpoint(inline_file)
        with PipelineClusterer.from_state(
            checkpoint.clusterer.get_state(), batch_events=7
        ) as pipeline:
            pipeline.apply_many(checkpoint.remaining(events))
            merged_pipeline = pipeline.snapshot()
            pipeline_file = tmp_path / "pipeline.ckpt"
            save_checkpoint(pipeline, pipeline_file, position=len(events))

        sequential.apply_many(events[half:])
        assert merged_pipeline == sequential.snapshot()

        # …and sequential execution resumes the pipeline's file.
        resumed = load_checkpoint(pipeline_file).clusterer
        assert isinstance(resumed, ShardedClusterer)
        assert resumed.snapshot() == sequential.snapshot()
        # Byte-identical files after the same logical stream.
        reference = tmp_path / "reference.ckpt"
        save_checkpoint(sequential, reference, position=len(events))
        assert reference.read_bytes() == pipeline_file.read_bytes()


class TestNeighborsReadOnly:
    def test_id_mode_neighbors_is_immutable_view(self):
        graph = AdjacencyGraph(interner=VertexInterner())
        graph.add_edge("a", "b")
        graph.add_edge("a", "c")
        view = graph.neighbors("a")
        assert isinstance(view, frozenset)
        assert view == {"b", "c"}
        with pytest.raises(AttributeError):
            view.add("z")
        # The view is a snapshot: later mutations don't leak in.
        graph.add_edge("a", "d")
        assert view == {"b", "c"}
        assert graph.neighbors("a") == {"b", "c", "d"}

    def test_label_mode_neighbors_is_immutable_view(self):
        graph = AdjacencyGraph([("x", "y")])
        view = graph.neighbors("x")
        assert isinstance(view, frozenset)
        with pytest.raises(AttributeError):
            view.discard("y")
        graph.remove_edge("x", "y")
        assert view == {"y"}  # snapshot unaffected
        assert graph.neighbors("x") == frozenset()


class TestHotClassSlots:
    def test_edge_event_has_no_dict_and_pickles(self):
        event = EdgeEvent(ADD, "b", "a")
        assert not hasattr(event, "__dict__")
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event and clone.edge == ("a", "b")

    def test_insert_proposal_has_no_dict_and_pickles(self):
        proposal = InsertProposal(("a", "b"), admit=True, evicted=("c", "d"))
        assert not hasattr(proposal, "__dict__")
        assert pickle.loads(pickle.dumps(proposal)) == proposal

    def test_reservoir_has_no_dict_and_state_pickles(self):
        reservoir = RandomPairingReservoir(4, seed=2)
        for item in range(10):
            reservoir.insert_fast(item)
        assert not hasattr(reservoir, "__dict__")
        state = pickle.loads(pickle.dumps(reservoir.get_state()))
        restored = RandomPairingReservoir.from_state(state)
        assert restored.items() == reservoir.items()

    def test_packed_reservoir_state_pickles_with_array_slots(self):
        reservoir = PackedEdgeReservoir(4, seed=2)
        for item in range(10):
            reservoir.insert_fast((item << 32) | (item + 1))
        state = pickle.loads(pickle.dumps(reservoir.get_state()))
        restored = PackedEdgeReservoir.from_state(state)
        assert restored.items() == reservoir.items()
        assert type(restored._slots).__name__ == "array"

    def test_clusterer_checkpoint_state_pickles(self):
        clusterer = StreamingGraphClusterer(
            ClustererConfig(reservoir_capacity=16, seed=1, strict=False)
        )
        clusterer.apply_many(exotic_stream())
        state = pickle.loads(pickle.dumps(clusterer.get_state()))
        restored = StreamingGraphClusterer.from_state(state)
        assert restored.snapshot() == clusterer.snapshot()
