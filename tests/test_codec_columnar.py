"""Property and robustness tests for columnar frame decoding.

The contract under test: for any endpoint columns, ``encode_columns``
(version 3) decodes to exactly the events the tuple path (version 2)
carries — same labels, same order — while sharing one cumulative vertex
table with interleaved v2 frames, and any byte surgery on a frame is
rejected with ``ValueError`` (``ProtocolError`` at the server). Large
version-2 frames of edge events decode to columns too, with the same
events and the same errors as the tuple decode.
"""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import codec
from repro.streams.codec import (
    COLUMNAR_CODEC_VERSION,
    DeltaBatchDecoder,
    FrameEncoder,
)
from repro.streams.events import EventColumns, EventKind, concat_event_batches

ADD = EventKind.ADD_EDGE
DEL = EventKind.DELETE_EDGE
ADDV = EventKind.ADD_VERTEX
#: Frame sizes below, at and above the v2 column threshold.
V2_MIN = codec._V2_COLUMNS_MIN_EVENTS
V2_SIZES = (V2_MIN // 8, V2_MIN, 4 * V2_MIN)

# Labels the stream readers can actually produce: ints (including values
# outside the signed 64-bit range, which must take the generic entry
# path) and arbitrary unicode strings.
_labels = st.one_of(
    st.integers(),
    st.integers(min_value=1 << 64, max_value=1 << 80),
    st.text(max_size=12),
)

_pairs = st.lists(st.tuples(_labels, _labels), max_size=60)


def _decode_all(frames):
    decoder = DeltaBatchDecoder()
    events = []
    for frame in frames:
        assert frame[0] == COLUMNAR_CODEC_VERSION
        columns = decoder.decode(frame)
        assert type(columns) is EventColumns
        assert columns.kinds is None
        events.extend(columns.to_events())
    return events


class TestColumnarRoundTrip:
    @given(_pairs)
    @settings(max_examples=200, deadline=None)
    def test_columnar_decode_matches_tuple_decode(self, pairs):
        us = [u for u, _ in pairs]
        vs = [v for _, v in pairs]
        frames = list(FrameEncoder().encode_columns(us, vs))
        expected = [(EventKind.ADD_EDGE, u, v) for u, v in pairs]
        assert _decode_all(frames) == expected

    @given(_pairs, st.integers(min_value=16, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_oversized_batches_split_without_loss(self, pairs, max_bytes):
        us = [u for u, _ in pairs]
        vs = [v for _, v in pairs]
        frames = list(FrameEncoder().encode_columns(us, vs, max_bytes=max_bytes))
        expected = [(EventKind.ADD_EDGE, u, v) for u, v in pairs]
        assert _decode_all(frames) == expected
        # Only a frame holding a single event may exceed the cap (its
        # first-mention entries alone can be bigger than max_bytes).
        decoder = DeltaBatchDecoder()
        for frame in frames:
            decoded = decoder.decode(frame)
            if len(frame) > max_bytes:
                assert len(decoded) == 1

    @given(st.lists(st.tuples(st.integers(), st.integers()), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_array_input_matches_list_input(self, pairs):
        in_range = [
            (u, v)
            for u, v in pairs
            if -(1 << 63) <= u < 1 << 63 and -(1 << 63) <= v < 1 << 63
        ]
        us = [u for u, _ in in_range]
        vs = [v for _, v in in_range]
        from_lists = list(FrameEncoder().encode_columns(us, vs))
        from_arrays = list(
            FrameEncoder().encode_columns(
                np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
            )
        )
        assert from_lists == from_arrays

    def test_empty_batch_emits_nothing(self):
        assert list(FrameEncoder().encode_columns([], [])) == []

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            list(FrameEncoder().encode_columns([1, 2], [3]))

    def test_v2_and_v3_share_one_table(self):
        # v3 frame introduces labels; the following v2 frame references
        # them by index (no re-mention), and vice versa.
        encoder = FrameEncoder()
        decoder = DeltaBatchDecoder()
        (frame3,) = encoder.encode_columns([1, 2], [2, 3])
        events = [(EventKind.DELETE_EDGE, 1, 2), (EventKind.ADD_EDGE, 3, 4)]
        frame2 = encoder.encode_batch(events)
        (frame3b,) = encoder.encode_columns([4, 1], [1, 4])
        got = decoder.decode(frame3).to_events()
        got += decoder.decode(frame2)
        got += decoder.decode(frame3b).to_events()
        assert got == [
            (EventKind.ADD_EDGE, 1, 2),
            (EventKind.ADD_EDGE, 2, 3),
            (EventKind.DELETE_EDGE, 1, 2),
            (EventKind.ADD_EDGE, 3, 4),
            (EventKind.ADD_EDGE, 4, 1),
            (EventKind.ADD_EDGE, 1, 4),
        ]
        assert decoder.table_size == encoder.table_size == 4

    def test_memoryview_decode_matches_bytes_decode(self):
        (frame,) = FrameEncoder().encode_columns([1, "x"], ["x", 1 << 70])
        from_bytes = DeltaBatchDecoder().decode(frame).to_events()
        from_view = DeltaBatchDecoder().decode(memoryview(frame)).to_events()
        assert from_bytes == from_view

    def test_int_fast_path_yields_array_columns(self):
        (frame,) = FrameEncoder().encode_columns([1, 2, 1], [2, 3, 3])
        columns = DeltaBatchDecoder().decode(frame)
        assert isinstance(columns.us, np.ndarray)
        assert columns.us.dtype == np.int64
        assert columns.to_events() == [
            (EventKind.ADD_EDGE, 1, 2),
            (EventKind.ADD_EDGE, 2, 3),
            (EventKind.ADD_EDGE, 1, 3),
        ]


class TestColumnarCorruption:
    def _frame(self):
        (frame,) = FrameEncoder().encode_columns([1, 2, 3], [2, 3, 4])
        return frame

    def test_truncated_frame_rejected(self):
        frame = self._frame()
        for cut in (1, 3, len(frame) // 2, len(frame) - 1):
            with pytest.raises(ValueError, match="corrupt event frame"):
                DeltaBatchDecoder().decode(frame[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            DeltaBatchDecoder().decode(self._frame() + b"\x00")

    def test_unknown_flags_rejected(self):
        frame = bytearray(self._frame())
        frame[1] = 0x02
        with pytest.raises(ValueError, match="flags"):
            DeltaBatchDecoder().decode(bytes(frame))

    def test_out_of_range_vertex_index_rejected(self):
        frame = bytearray(self._frame())
        # The final u32 is the last v-index; point it past the table.
        struct.pack_into("<I", frame, len(frame) - 4, 1 << 20)
        with pytest.raises(ValueError, match="out of range"):
            DeltaBatchDecoder().decode(bytes(frame))

    def test_corrupt_entry_count_rejected(self):
        frame = bytearray(self._frame())
        struct.pack_into("<I", frame, 2, 1 << 16)  # table-entry count
        with pytest.raises(ValueError, match="corrupt event frame"):
            DeltaBatchDecoder().decode(bytes(frame))


def _edge_events(n, seed=3, delete_every=5):
    """``n`` int edge events over 100 vertices, every ``delete_every``-th
    a deletion (the codec does not check that deletions are live)."""
    rng = random.Random(seed)
    events = []
    while len(events) < n:
        u, v = rng.randrange(100), rng.randrange(100)
        if u != v:
            kind = DEL if len(events) % delete_every == delete_every - 1 else ADD
            events.append((kind, u, v))
    return events


class TestDeltaFrameColumns:
    @pytest.mark.parametrize("n", V2_SIZES)
    def test_edge_frames_decode_by_size(self, n):
        events = _edge_events(n)
        batch = DeltaBatchDecoder().decode(FrameEncoder().encode_batch(events))
        if n < V2_MIN:
            assert batch == events
            return
        assert type(batch) is EventColumns
        assert batch.us.dtype == batch.vs.dtype == np.int64
        assert isinstance(batch.kinds, np.ndarray)
        assert batch.to_events() == events

    def test_vertex_event_keeps_tuples(self):
        events = _edge_events(4 * V2_MIN)
        events.insert(10, (ADDV, 7, None))
        batch = DeltaBatchDecoder().decode(FrameEncoder().encode_batch(events))
        assert type(batch) is list
        assert batch == events

    def test_non_int_label_keeps_tuples(self):
        encoder = FrameEncoder()
        decoder = DeltaBatchDecoder()
        first = [(ADD, "a", 1)]
        assert decoder.decode(encoder.encode_batch(first)) == first
        # The connection's table is no longer all-int: later frames too.
        events = _edge_events(4 * V2_MIN)
        batch = decoder.decode(encoder.encode_batch(events))
        assert type(batch) is list
        assert batch == events

    def test_coalesced_mixed_frames_keep_event_order(self):
        encoder = FrameEncoder()
        decoder = DeltaBatchDecoder()
        big = _edge_events(4 * V2_MIN, seed=5)
        small = _edge_events(5, seed=6)
        adds = _edge_events(2 * V2_MIN, seed=7, delete_every=10**9)
        big_again = _edge_events(2 * V2_MIN, seed=8, delete_every=2)
        frames = [
            encoder.encode_batch(big),
            encoder.encode_batch(small),
            *encoder.encode_columns([u for _, u, _ in adds], [v for _, _, v in adds]),
            encoder.encode_batch(big_again),
        ]
        batches = [decoder.decode(frame) for frame in frames]
        assert [type(b) is EventColumns for b in batches] == [True, False, True, True]
        assert batches[2].kinds is None
        assert concat_event_batches(batches) == big + small + adds + big_again

    # name: (triplet field offset from the frame's end, new u32, message
    # fragment); the last event of the frame is the corrupt one.
    _CORRUPTIONS = {
        "unknown_kind_code": (-12, 9, "unknown kind code 9"),
        "u_index_out_of_range": (-8, 0xFFFF0000, "vertex index 4294901760 out of range"),
        "v_index_out_of_range": (-4, 0xFFFF0000, "endpoint index 4294901760"),
        "edge_without_endpoint": (-4, 0xFFFFFFFF, "endpoint index 4294967295"),
        "vertex_with_second_endpoint": (
            -12, 2, "vertex event carries a second endpoint"
        ),
        "trailing_bytes": (None, None, "3 trailing bytes"),
    }

    @pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
    def test_corrupt_frames_raise_one_message(self, corruption, monkeypatch):
        offset, value, fragment = self._CORRUPTIONS[corruption]
        messages = set()
        for n in V2_SIZES:
            frame = bytearray(FrameEncoder().encode_batch(_edge_events(n)))
            if offset is None:
                frame += b"\x00\x00\x00"
            else:
                struct.pack_into("<I", frame, len(frame) + offset, value)
            # Force the column attempt, keep the default, force tuples.
            for limit in (0, V2_MIN, 1 << 30):
                monkeypatch.setattr(codec, "_V2_COLUMNS_MIN_EVENTS", limit)
                with pytest.raises(ValueError) as error:
                    DeltaBatchDecoder().decode(bytes(frame))
                messages.add(str(error.value))
        assert len(messages) == 1
        (message,) = messages
        assert message.startswith("corrupt event frame: ")
        assert fragment in message
