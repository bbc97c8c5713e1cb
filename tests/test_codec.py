"""Round-trip and robustness tests for the binary event-batch codec.

Frames are written by :class:`FrameEncoder` and read back by
:class:`DeltaBatchDecoder`, the label-space reader the service uses.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import add_edge, delete_vertex
from repro.streams.codec import (
    COLUMNAR_CODEC_VERSION,
    DeltaBatchDecoder,
    FrameEncoder,
)
from repro.streams.events import EventKind

# Vertex ids the stream readers can actually produce: ints (including
# values outside the signed 64-bit range) and arbitrary unicode strings.
_vertices = st.one_of(
    st.integers(),
    st.integers(min_value=1 << 64, max_value=1 << 80),
    st.text(max_size=12),
)

_edge_kinds = st.sampled_from([EventKind.ADD_EDGE, EventKind.DELETE_EDGE])
_vertex_kinds = st.sampled_from([EventKind.ADD_VERTEX, EventKind.DELETE_VERTEX])

# Fewer events than DeltaBatchDecoder's columnar threshold, so every
# frame decodes to plain label tuples.
_events = st.lists(
    st.one_of(
        st.tuples(_edge_kinds, _vertices, _vertices),
        st.tuples(_vertex_kinds, _vertices, st.none()),
    ),
    max_size=60,
)


def roundtrip(events):
    return DeltaBatchDecoder().decode(FrameEncoder().encode_batch(events))


class TestRoundTrip:
    @given(_events)
    @settings(max_examples=200, deadline=None)
    def test_single_frame_roundtrip_is_exact(self, events):
        assert roundtrip(events) == events

    @given(_events, st.integers(min_value=1, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_split_frames_concatenate_to_input(self, events, max_bytes):
        frames = list(FrameEncoder().encode_batches(events, max_bytes=max_bytes))
        decoder = DeltaBatchDecoder()
        batches = [decoder.decode(frame) for frame in frames]
        assert [event for batch in batches for event in batch] == events
        # Only a frame holding a single oversized event may exceed the cap.
        for frame, batch in zip(frames, batches):
            if len(frame) > max_bytes:
                assert len(batch) == 1

    def test_empty_batch(self):
        assert roundtrip([]) == []
        assert list(FrameEncoder().encode_batches([], max_bytes=64)) == []

    def test_unicode_labels(self):
        events = [(EventKind.ADD_EDGE, "naïve-α", "vertex-\U0001f600")]
        assert roundtrip(events) == events

    def test_bigint_and_negative_vertices(self):
        events = [(EventKind.ADD_EDGE, -(1 << 70), (1 << 70) + 3)]
        assert roundtrip(events) == events

    def test_edge_event_objects_accepted(self):
        assert roundtrip([add_edge(1, 2), delete_vertex(3)]) == [
            (EventKind.ADD_EDGE, 1, 2),
            (EventKind.DELETE_VERTEX, 3, None),
        ]

    def test_interning_shares_table_entries(self):
        events = [(EventKind.ADD_EDGE, "hub", f"leaf-{i}") for i in range(50)]
        frame = FrameEncoder().encode_batch(events)
        # "hub" appears once in the table, not 50 times.
        assert frame.count(b"hub") == 1
        assert DeltaBatchDecoder().decode(frame) == events


class TestEncodingErrors:
    def test_bool_vertices_rejected(self):
        with pytest.raises(TypeError, match="int and str"):
            FrameEncoder().encode_batch([(EventKind.ADD_EDGE, True, 2)])

    def test_unsupported_vertex_type_rejected(self):
        with pytest.raises(TypeError, match="float"):
            FrameEncoder().encode_batch([(EventKind.ADD_EDGE, 1.5, 2)])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            FrameEncoder().encode_batch([("not-a-kind", 1, 2)])

    def test_nonpositive_max_bytes_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            list(FrameEncoder().encode_batches([add_edge(1, 2)], max_bytes=0))


def frame_of(events) -> bytearray:
    return bytearray(FrameEncoder().encode_batch(events))


class TestDecodingErrors:
    FRAME = bytes(frame_of([(EventKind.ADD_EDGE, 1, "two")]))

    def test_truncation_rejected(self):
        for cut in range(len(self.FRAME)):
            with pytest.raises(ValueError, match="corrupt event frame"):
                DeltaBatchDecoder().decode(self.FRAME[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            DeltaBatchDecoder().decode(self.FRAME + b"\x00")

    def test_future_version_rejected(self):
        bogus = bytes([COLUMNAR_CODEC_VERSION + 1]) + self.FRAME[1:]
        with pytest.raises(ValueError, match="version"):
            DeltaBatchDecoder().decode(bogus)

    def test_unknown_kind_code_rejected(self):
        frame = frame_of([(EventKind.ADD_EDGE, 1, 2)])
        frame[-12] = 200  # kind field of the only event triplet
        with pytest.raises(ValueError, match="kind code"):
            DeltaBatchDecoder().decode(bytes(frame))

    def test_out_of_range_vertex_index_rejected(self):
        frame = frame_of([(EventKind.ADD_EDGE, 1, 2)])
        frame[-8] = 9  # u_index beyond the 2-entry table
        with pytest.raises(ValueError, match="out of range"):
            DeltaBatchDecoder().decode(bytes(frame))

    def test_vertex_event_with_endpoint_rejected(self):
        frame = frame_of([(EventKind.ADD_VERTEX, 1, None)])
        frame[-4:] = (0).to_bytes(4, "little")  # v_index: NO_VERTEX -> 0
        with pytest.raises(ValueError, match="second"):
            DeltaBatchDecoder().decode(bytes(frame))

    def test_edge_missing_endpoint_rejected(self):
        frame = frame_of([(EventKind.ADD_EDGE, 1, 2)])
        frame[-4:] = (0xFFFFFFFF).to_bytes(4, "little")
        with pytest.raises(ValueError, match="endpoint"):
            DeltaBatchDecoder().decode(bytes(frame))
