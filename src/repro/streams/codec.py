"""Compact binary codec for raw event batches.

The multiprocess pipeline (:mod:`repro.core.pipeline`) ships event
batches from the parsing/routing stage to long-lived shard workers, and
the streaming service (:mod:`repro.serve`) receives them from clients.
Pickling a list of per-event objects costs more than the clustering
work itself at high throughput, so batches travel as *frames*: the
vertex labels the receiver has not seen yet, followed by the events as
packed ``uint32`` triplets — one bulk :func:`struct.pack` call per
frame, no per-event object overhead on either side.

Delta frames (version 2)
------------------------
:class:`FrameEncoder` writes frames against a vertex table that lives
for the *connection*, not the frame. Each frame ships only the entries
the receiver has not seen yet (``u32`` indexes address the cumulative
table), so a long-lived shard stops paying label bytes for its working
set almost immediately. All integers are little-endian::

    u8   format version (2)
    u32  NEW vertex-table entry count T (appended to the table)
    T×   tagged entry:
           0x00  s64            — int vertex in the signed 64-bit range
           0x01  u32 len, utf-8 — string vertex
           0x02  u32 len, ascii — int vertex outside the 64-bit range
                                  (decimal digits)
    u32  event count N
    N×   u32 kind, u32 u_index, u32 v_index  (cumulative-table indexes;
         v_index = 0xFFFFFFFF for vertex events)

Supported vertex types are ``int`` and ``str`` — exactly what the
stream readers in :mod:`repro.streams.io` produce. Anything else (and
``bool``, which would silently collapse into ``0``/``1``) raises
``TypeError`` at encode time. Table lookups are by equality, so every
*new* vertex value is type-checked as it is interned.

Two stateful readers mirror the encoder's table. Round-trip is exact
(property-tested in ``tests/test_codec.py``), and a corrupt or
truncated frame raises ``ValueError`` from either:

* :class:`FrameDecoder` additionally *interns* vertices straight into a
  :class:`~repro.graph.intern.VertexInterner` — edge endpoints and
  ADD_VERTEX labels are assigned dense ids at decode time, in exactly
  the order the sequential batch path would assign them, so a pipeline
  worker applies edge runs as already-interned id tuples with zero
  label rehydration on its hot path (see
  ``StreamingGraphClusterer.apply_interned_many``).
* :class:`DeltaBatchDecoder` is the interner-free sibling for consumers
  that live *outside* a clusterer process — the streaming service
  decodes client frames at the socket boundary into plain raw
  ``(kind, u, v)`` label tuples and only then routes them onto a tenant
  session.

Columnar frames (version 3)
---------------------------
The batched kernels want arrays, not tuples. A version-3 frame carries
one maximal ``ADD_EDGE`` run in column layout against the same
cumulative vertex table the version-2 delta frames grow::

    u8   format version (3)
    u8   flags (bit 0: ALL_ADD — required; other bits reserved)
    u32  NEW vertex-table entry count T (appended to the table)
    T×   tagged entry (same tags as version 2)
    u32  event count N
    N×   u32 u_index   (one contiguous block)
    N×   u32 v_index   (one contiguous block)

Eight bytes per event instead of twelve (the kind word is implied by
the flag), and — decisively — the index blocks are ``np.frombuffer``
*views* over the receive buffer: decoding a frame is two views, one
vectorized gather through the cumulative label table, zero per-event
Python. Both stateful decoders dispatch on the version byte, so v2 and
v3 frames interleave freely on one connection; anything that is not an
all-int ``ADD_EDGE`` run (deletions, vertex events, self-loops kept
for error reporting) still travels as v2 frames. Decoded columns come
back as :class:`~repro.streams.events.EventColumns` and keep the exact
apply-time semantics of the equivalent tuples (property-tested in
``tests/test_codec_columnar.py``).

:class:`DeltaBatchDecoder` also decodes a large version-2 frame to
columns when it holds only edge events over an all-int table: the
triplet block is one ``np.frombuffer`` view, the label columns are
gathered through the same table mirror, and the kind words become an
array of :data:`~repro.streams.events.EVENT_KINDS` codes that the
numpy kernel splits into add runs and in-place deletions. The wire
bytes do not change.

Wire layer
----------
The same frames also travel over sockets (:mod:`repro.serve`). The wire
layer below adds what a byte stream needs that a pipe does not: an
explicit **length prefix** per message and a **handshake** that pins the
protocol version and names the tenant before any frame is accepted::

    message   := u32 length | u8 opcode | payload        (length = 1 + len(payload))
    handshake := HELLO payload: 4-byte magic "RPRW", u8 wire version,
                 u16 tenant-id byte length, tenant id (utf-8)

:func:`pack_wire_message` / :func:`split_wire_message` and
:func:`encode_hello` / :func:`decode_hello` are transport-agnostic pure
byte functions; blocking and asyncio readers live in
:mod:`repro.serve.protocol`.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as _np

from repro.streams.events import EVENT_KINDS, EventColumns, EventKind, RawEvent

__all__ = [
    "COLUMNAR_CODEC_VERSION",
    "DELTA_CODEC_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_MAX_WIRE_BYTES",
    "DeltaBatchDecoder",
    "FrameDecoder",
    "FrameEncoder",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "decode_hello",
    "encode_hello",
    "pack_wire_message",
    "split_wire_message",
    "wire_message_parts",
]

DELTA_CODEC_VERSION = 2
COLUMNAR_CODEC_VERSION = 3

#: Version-3 flag bit: every event in the frame is an ``ADD_EDGE``.
#: The only flag this build defines — and it is mandatory, so a decoder
#: can reject frames claiming semantics it does not implement.
_COL_FLAG_ALL_ADD = 0x01

#: First bytes of every service handshake — lets a server refuse a
#: client speaking the wrong protocol before parsing anything else.
WIRE_MAGIC = b"RPRW"
WIRE_VERSION = 1

#: Default per-message ceiling a service enforces on the wire. Larger
#: than the pipe-frame default (a TCP client may batch aggressively)
#: but still small enough that one hostile length prefix cannot make
#: the server allocate gigabytes.
DEFAULT_MAX_WIRE_BYTES = 4 * 1024 * 1024

#: Default frame-size ceiling for :meth:`FrameEncoder.encode_batches`.
#: Frames are also pipe messages, so keeping them well under the OS pipe
#: buffer lets the producer's ``send`` return without blocking on the
#: worker.
DEFAULT_MAX_FRAME_BYTES = 256 * 1024

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_NO_VERTEX = 0xFFFFFFFF

# Event kinds are encoded positionally: EVENT_KINDS is the closed,
# ordered wire enumeration (a new kind must be appended, never inserted).
_KIND_CODE = {kind: code for code, kind in enumerate(EVENT_KINDS)}
_EDGE_CODES = frozenset(
    (_KIND_CODE[EventKind.ADD_EDGE], _KIND_CODE[EventKind.DELETE_EDGE])
)
# The edge kinds are the lowest codes: a code up to this one is an edge.
_MAX_EDGE_CODE = max(_EDGE_CODES)

#: Smallest version-2 frame :class:`DeltaBatchDecoder` decodes to
#: columns: below it the fixed numpy cost (a view, the range checks, two
#: gathers) is more than the per-event tuple loop it replaces. Measured
#: on a 2-vCPU x86-64 VM (CPython 3.11, numpy 2.4) with a 1,024-label
#: int table: a 1-event frame decodes in about 2 us as tuples and 8-13 us
#: as arrays; the two meet between 32 and 64 events.
_V2_COLUMNS_MIN_EVENTS = 64

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_S64_ENTRY = struct.Struct("<bq")
_HEADER = struct.Struct("<BI")
_COL_HEADER = struct.Struct("<BBI")

#: HELLO kernel byte ↔ kernel name. Absent byte means "server default".
_KERNEL_CODES = {"scalar": 0, "numpy": 1}
_KERNEL_NAMES = {code: name for name, code in _KERNEL_CODES.items()}


def _encode_entry(vertex) -> bytes:
    """One tagged vertex-table entry; raises ``TypeError`` for vertex
    types the wire format has no representation for."""
    kind = type(vertex)
    if kind is int:
        if _INT64_MIN <= vertex <= _INT64_MAX:
            return _S64_ENTRY.pack(0, vertex)
        digits = str(vertex).encode("ascii")
        return b"\x02" + _U32.pack(len(digits)) + digits
    if kind is str:
        data = vertex.encode("utf-8")
        return b"\x01" + _U32.pack(len(data)) + data
    raise TypeError(
        f"codec supports int and str vertex ids, got {kind.__name__}: {vertex!r}"
    )


def _event_fields(event) -> Tuple[EventKind, object, object]:
    if type(event) is tuple:
        return event
    return event.kind, event.u, event.v


def _decode_entries(data, offset: int, count: int, out: List[object]) -> int:
    """Parse ``count`` tagged vertex-table entries into ``out``.

    Shared by the version-2 and version-3 readers; ``data`` is any
    bytes-like object (the wire readers hand in
    memoryviews over the receive buffer). Returns the offset past the
    last entry. Structural problems raise ``ValueError`` (callers add no
    further context — the messages are already frame-specific).
    """
    for _ in range(count):
        tag = data[offset]
        offset += 1
        if tag == 0:
            (value,) = struct.unpack_from("<q", data, offset)
            offset += 8
        elif tag in (1, 2):
            (length,) = _U32.unpack_from(data, offset)
            offset += 4
            raw = bytes(data[offset : offset + length])
            if len(raw) != length:
                raise ValueError("corrupt event frame: truncated vertex entry")
            offset += length
            if tag == 1:
                value = raw.decode("utf-8")
            else:
                try:
                    value = int(raw)
                except ValueError:
                    raise ValueError(
                        "corrupt event frame: malformed bigint entry"
                    ) from None
        else:
            raise ValueError(f"corrupt event frame: unknown vertex entry tag {tag}")
        out.append(value)
    return offset


class FrameEncoder:
    """Stateful version-2 frame writer (one per pipeline shard).

    The vertex table is cumulative: a label is shipped (as a tagged
    entry) in the first frame that mentions it and addressed by its
    ``u32`` table index forever after. The matching :class:`FrameDecoder`
    must be primed with the same base table (``table()`` snapshots it
    for checkpoint/respawn resynchronization).

    A failed :meth:`encode_batch` (unsupported vertex type, unknown
    kind) rolls the table back to its pre-call state, so the encoder
    stays in sync with the decoder even when the caller recovers from
    the error.
    """

    __slots__ = ("_index", "_labels")

    def __init__(self, labels: Optional[Iterable] = None) -> None:
        self._labels: List = []
        self._index: Dict = {}
        if labels is not None:
            for label in labels:
                if label in self._index:
                    raise ValueError(f"duplicate vertex-table label {label!r}")
                self._index[label] = len(self._labels)
                self._labels.append(label)

    @property
    def table_size(self) -> int:
        """Cumulative vertex-table entry count."""
        return len(self._labels)

    def table(self) -> List:
        """Copy of the cumulative label table, in index order."""
        return list(self._labels)

    def encode_batch(self, events: Sequence) -> bytes:
        """Encode a batch as one delta frame, growing the table."""
        index = self._index
        labels = self._labels
        staged: List = []  # labels added by this frame (rolled back on error)
        entries: List[bytes] = []
        flat: List[int] = []
        kind_code = _KIND_CODE
        no_vertex = _NO_VERTEX
        try:
            for event in events:
                kind, u, v = _event_fields(event)
                code = kind_code.get(kind)
                if code is None:
                    raise ValueError(f"unknown event kind {kind!r}")
                u_index = index.get(u)
                if u_index is None:
                    entry = _encode_entry(u)
                    u_index = index[u] = len(labels)
                    labels.append(u)
                    staged.append(u)
                    entries.append(entry)
                if v is None:
                    v_index = no_vertex
                else:
                    v_index = index.get(v)
                    if v_index is None:
                        entry = _encode_entry(v)
                        v_index = index[v] = len(labels)
                        labels.append(v)
                        staged.append(v)
                        entries.append(entry)
                flat.append(code)
                flat.append(u_index)
                flat.append(v_index)
        except Exception:
            for label in reversed(staged):
                del index[label]
                labels.pop()
            raise
        parts = [_HEADER.pack(DELTA_CODEC_VERSION, len(entries))]
        parts.extend(entries)
        parts.append(_U32.pack(len(flat) // 3))
        parts.append(struct.pack(f"<{len(flat)}I", *flat))
        return b"".join(parts)

    def encode_batches(
        self, events: Iterable, *, max_bytes: int = DEFAULT_MAX_FRAME_BYTES
    ) -> Iterator[bytes]:
        """Encode events into one or more frames of at most ``max_bytes``.

        Splits greedily on exact size accounting (header + new table
        entries + 12 bytes per event). A label's entry bytes are charged
        only the first time the *connection* (not the frame) mentions
        it, so a warm table packs far more events per frame. A single
        event whose new labels alone exceed ``max_bytes`` still gets its
        own (oversized) frame — the codec never drops or truncates an
        event. Yields nothing for an empty input.
        """
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        index = self._index
        batch: List = []
        size = _HEADER.size + _U32.size
        pending: set = set()  # labels new in the current, uncommitted batch
        for event in events:
            _, u, v = _event_fields(event)
            added = 12  # one packed triplet
            if u not in index and u not in pending:
                added += len(_encode_entry(u))
            if v is not None and v != u and v not in index and v not in pending:
                added += len(_encode_entry(v))
            if batch and size + added > max_bytes:
                yield self.encode_batch(batch)
                batch = []
                pending = set()
                size = _HEADER.size + _U32.size
                added = 12
                if u not in index:
                    added += len(_encode_entry(u))
                if v is not None and v != u and v not in index:
                    added += len(_encode_entry(v))
            batch.append(event)
            pending.add(u)
            if v is not None:
                pending.add(v)
            size += added
        if batch:
            yield self.encode_batch(batch)

    def encode_columns(
        self,
        us: Sequence,
        vs: Sequence,
        *,
        max_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> Iterator[bytes]:
        """Encode an all-``ADD_EDGE`` run as version-3 columnar frames.

        ``us``/``vs`` are parallel endpoint columns (lists or numpy
        arrays); every event is an ``ADD_EDGE``, so no kind column
        travels. All-int columns take a fully vectorized path
        (``np.unique`` for first mentions, one bulk index pack); other
        label types fall back to a per-event encoder with the same
        rollback-on-error contract as :meth:`encode_batch`. Frames split
        at ``max_bytes`` on exact size accounting, like
        :meth:`encode_batches`.
        """
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        n = len(us)
        if len(vs) != n:
            raise ValueError(
                f"column length mismatch: {n} u labels, {len(vs)} v labels"
            )
        if not n:
            return
        au = av = None
        if isinstance(us, _np.ndarray) and isinstance(vs, _np.ndarray):
            if us.dtype.kind == "i" and vs.dtype.kind == "i":
                au = us.astype(_np.int64, copy=False)
                av = vs.astype(_np.int64, copy=False)
        elif set(map(type, us)) == {int} and set(map(type, vs)) == {int}:
            try:
                au = _np.array(us, dtype=_np.int64)
                av = _np.array(vs, dtype=_np.int64)
            except (OverflowError, ValueError):
                au = av = None  # bigint labels: generic path
        if au is not None:
            yield from self._encode_columns_int(au, av, max_bytes)
            return
        yield from self._encode_columns_generic(list(us), list(vs), max_bytes)

    def _encode_columns_int(self, au, av, max_bytes: int) -> Iterator[bytes]:
        """Vectorized columnar encode for in-range int64 label arrays."""
        index = self._index
        labels = self._labels
        worklist = [(au, av)]
        while worklist:
            au, av = worklist.pop()
            n = int(au.size)
            # One pass over the interleaved label stream gives both the
            # distinct labels and the per-event positions into them.
            flat = _np.empty(2 * n, dtype=_np.int64)
            flat[0::2] = au
            flat[1::2] = av
            uniq, inverse = _np.unique(flat, return_inverse=True)
            uniq_labels = uniq.tolist()
            uniq_ids = _np.empty(len(uniq_labels), dtype=_np.int64)
            new_positions: List[int] = []
            for pos, label in enumerate(uniq_labels):
                known = index.get(label)
                if known is None:
                    new_positions.append(pos)
                else:
                    uniq_ids[pos] = known
            # int64 labels always pack as 9-byte s64 entries.
            size = (
                _COL_HEADER.size
                + 9 * len(new_positions)
                + _U32.size
                + 8 * n
            )
            if size > max_bytes and n > 1:
                half = n // 2
                worklist.append((au[half:], av[half:]))
                worklist.append((au[:half], av[:half]))
                continue
            entries: List[bytes] = []
            for pos in new_positions:
                label = uniq_labels[pos]
                uniq_ids[pos] = index[label] = len(labels)
                labels.append(label)
                entries.append(_S64_ENTRY.pack(0, label))
            ids_flat = uniq_ids[inverse.reshape(-1)]
            parts = [
                _COL_HEADER.pack(
                    COLUMNAR_CODEC_VERSION, _COL_FLAG_ALL_ADD, len(entries)
                )
            ]
            parts.extend(entries)
            parts.append(_U32.pack(n))
            parts.append(ids_flat[0::2].astype("<u4").tobytes())
            parts.append(ids_flat[1::2].astype("<u4").tobytes())
            yield b"".join(parts)

    def _encode_columns_generic(
        self, us: List, vs: List, max_bytes: int
    ) -> Iterator[bytes]:
        """Per-event columnar encode for str/bigint (or mixed) labels."""
        index = self._index
        labels = self._labels
        n = len(us)
        start = 0
        while start < n:
            staged: List = []
            entries: List[bytes] = []
            u_indexes: List[int] = []
            v_indexes: List[int] = []
            size = _COL_HEADER.size + _U32.size
            i = start
            try:
                while i < n:
                    u = us[i]
                    v = vs[i]
                    added = 8  # one u32 per index block
                    u_index = index.get(u)
                    u_entry = v_entry = None
                    if u_index is None:
                        u_entry = _encode_entry(u)
                        added += len(u_entry)
                    if v == u and type(v) is type(u):
                        v_index = u_index
                    else:
                        v_index = index.get(v)
                        if v_index is None:
                            v_entry = _encode_entry(v)
                            added += len(v_entry)
                    if u_indexes and size + added > max_bytes:
                        break  # frame full; event restarts the next one
                    if u_index is None:
                        u_index = index[u] = len(labels)
                        labels.append(u)
                        staged.append(u)
                        entries.append(u_entry)
                        if v_entry is None and v_index is None:
                            v_index = u_index  # v == u, committed above
                    if v_index is None:
                        v_index = index[v] = len(labels)
                        labels.append(v)
                        staged.append(v)
                        entries.append(v_entry)
                    u_indexes.append(u_index)
                    v_indexes.append(v_index)
                    size += added
                    i += 1
            except Exception:
                for label in reversed(staged):
                    del index[label]
                    labels.pop()
                raise
            count = len(u_indexes)
            parts = [
                _COL_HEADER.pack(
                    COLUMNAR_CODEC_VERSION, _COL_FLAG_ALL_ADD, len(entries)
                )
            ]
            parts.extend(entries)
            parts.append(_U32.pack(count))
            parts.append(struct.pack(f"<{count}I", *u_indexes))
            parts.append(struct.pack(f"<{count}I", *v_indexes))
            yield b"".join(parts)
            start = i


class _ColumnarDecodeMixin:
    """Version-3 columnar decode shared by the stateful frame readers.

    Grows the same cumulative ``_labels`` table the version-2 path
    grows, so v2 and v3 frames interleave freely on one connection. The
    hot path keeps a lazily grown ``int64`` mirror of the label table;
    as long as every label is an in-range int (the overwhelmingly common
    case) the endpoint columns decode as two ``np.frombuffer`` views
    plus one vectorized gather. The first non-int label permanently
    drops the connection to a list gather — still columnar, just not
    array-backed.
    """

    __slots__ = ()

    def _init_column_cache(self) -> None:
        self._table_arr = None  # cached int64 mirror of _labels
        self._table_mirrored = 0  # labels mirrored so far
        self._table_all_int = True

    def _register_fresh(self, fresh: List[object]) -> None:
        self._labels.extend(fresh)

    def _sync_table_array(self) -> bool:
        """Mirror new labels into the int64 cache; False once any label
        cannot live in an int64 array (vector gather no longer valid)."""
        labels = self._labels
        n = len(labels)
        start = self._table_mirrored
        if start == n:
            return self._table_all_int
        self._table_mirrored = n
        if not self._table_all_int:
            return False
        arr = self._table_arr
        if arr is None or arr.size < n:
            capacity = 256 if arr is None else arr.size
            while capacity < n:
                capacity *= 2
            grown = _np.empty(capacity, dtype=_np.int64)
            if arr is not None and start:
                grown[:start] = arr[:start]
            self._table_arr = arr = grown
        for i in range(start, n):
            label = labels[i]
            if type(label) is int and _INT64_MIN <= label <= _INT64_MAX:
                arr[i] = label
            else:
                self._table_all_int = False
                return False
        return True

    def _decode_columns(self, data) -> EventColumns:
        """Decode one version-3 frame into ``EventColumns`` (table grows)."""
        try:
            _, flags, new_count = _COL_HEADER.unpack_from(data, 0)
        except struct.error:
            raise ValueError("corrupt event frame: truncated header") from None
        if flags != _COL_FLAG_ALL_ADD:
            raise ValueError(
                f"corrupt event frame: unsupported columnar flags 0x{flags:02x}"
            )
        offset = _COL_HEADER.size
        fresh: List[object] = []
        try:
            offset = _decode_entries(data, offset, new_count, fresh)
            (count,) = _U32.unpack_from(data, offset)
            offset += 4
        except (struct.error, IndexError, UnicodeDecodeError) as error:
            raise ValueError(f"corrupt event frame: {error}") from None
        if offset + 8 * count != len(data):
            raise ValueError(
                f"corrupt event frame: {len(data) - offset - 8 * count} "
                "trailing bytes"
            )
        self._register_fresh(fresh)
        table_count = len(self._labels)
        if not count:
            return EventColumns(us=[], vs=[])
        u_idx = _np.frombuffer(data, dtype="<u4", count=count, offset=offset)
        v_idx = _np.frombuffer(
            data, dtype="<u4", count=count, offset=offset + 4 * count
        )
        if int(u_idx.max()) >= table_count or int(v_idx.max()) >= table_count:
            raise ValueError("corrupt event frame: vertex index out of range")
        if self._sync_table_array():
            table = self._table_arr
            return EventColumns(us=table[u_idx], vs=table[v_idx])
        labels = self._labels
        us = [labels[i] for i in u_idx.tolist()]
        vs = [labels[i] for i in v_idx.tolist()]
        return EventColumns(us=us, vs=vs)


class FrameDecoder(_ColumnarDecodeMixin):
    """Stateful version-2 frame reader (one per pipeline worker).

    Mirrors a :class:`FrameEncoder`'s cumulative table and *interns*
    vertices into the worker clusterer's
    :class:`~repro.graph.intern.VertexInterner` at decode time.

    :meth:`decode` returns *segments*: maximal runs of edge events as
    lists of already-interned ``(kind, uid, vid)`` id tuples — fed
    straight to ``StreamingGraphClusterer.apply_interned_many`` with
    zero label rehydration — interleaved with single label-space
    ``(kind, u, None)``/``(kind, u, v)`` tuples for everything that must
    take the per-event path: vertex events, plus self-loop edge events,
    which the decoder deliberately leaves uninterned so the per-event
    path rejects them exactly as sequential ingestion would.

    Intern order follows the sequential contract — walking the frame's
    events in order, edge endpoints intern in label-canonical order and
    ADD_VERTEX labels intern on sight (DELETE_VERTEX never interns) —
    so a worker's intern table, and therefore its checkpoint bytes, are
    identical to what the same shard stream would build inline.
    """

    __slots__ = (
        "_interner",
        "_labels",
        "_ids",
        "_table_arr",
        "_table_mirrored",
        "_table_all_int",
    )

    def __init__(self, interner, labels: Optional[Iterable] = None) -> None:
        self._interner = interner
        self._labels: List = []
        self._ids: List[int] = []  # parallel to _labels; -1 = not interned yet
        self._init_column_cache()
        if labels is not None:
            self._labels.extend(labels)
            self._ids.extend([-1] * len(self._labels))

    @property
    def table_size(self) -> int:
        """Cumulative vertex-table entry count."""
        return len(self._labels)

    def _register_fresh(self, fresh: List[object]) -> None:
        self._labels.extend(fresh)
        self._ids.extend([-1] * len(fresh))

    def decode(self, data) -> List:
        """Decode one delta frame into apply-ready segments.

        A version-3 columnar frame decodes to a single
        :class:`EventColumns` segment (the worker clusterer's batch
        kernel interns those itself); version-2 frames decode to the
        interned-run/label-tuple segments described above.
        """
        if len(data) and data[0] == COLUMNAR_CODEC_VERSION:
            return [self._decode_columns(data)]
        try:
            version, new_count = _HEADER.unpack_from(data, 0)
        except struct.error:
            raise ValueError("corrupt event frame: truncated header") from None
        if version != DELTA_CODEC_VERSION:
            raise ValueError(
                f"corrupt event frame: unsupported delta codec version "
                f"{version} (this decoder reads {DELTA_CODEC_VERSION})"
            )
        labels = self._labels
        ids = self._ids
        offset = _HEADER.size
        fresh: List[object] = []
        try:
            offset = _decode_entries(data, offset, new_count, fresh)
            (count,) = _U32.unpack_from(data, offset)
            offset += 4
            flat = struct.unpack_from(f"<{3 * count}I", data, offset)
        except (struct.error, IndexError, UnicodeDecodeError) as error:
            raise ValueError(f"corrupt event frame: {error}") from None
        if offset + 12 * count != len(data):
            raise ValueError(
                f"corrupt event frame: {len(data) - offset - 12 * count} "
                "trailing bytes"
            )
        labels.extend(fresh)
        ids.extend([-1] * len(fresh))
        table_count = len(labels)
        intern = self._interner.intern
        kinds = EVENT_KINDS
        edge_codes = _EDGE_CODES
        no_vertex = _NO_VERTEX
        add_vertex = EventKind.ADD_VERTEX
        segments: List = []
        run: List[Tuple[EventKind, int, int]] = []
        for i in range(0, 3 * count, 3):
            code, u_index, v_index = flat[i], flat[i + 1], flat[i + 2]
            if code >= len(kinds):
                raise ValueError(f"corrupt event frame: unknown kind code {code}")
            if u_index >= table_count:
                raise ValueError(
                    f"corrupt event frame: vertex index {u_index} out of range"
                )
            if code in edge_codes:
                if v_index >= table_count:
                    raise ValueError(
                        "corrupt event frame: edge event with missing or "
                        f"out-of-range endpoint index {v_index}"
                    )
                u = labels[u_index]
                v = labels[v_index]
                if u == v:
                    # Self-loop: emit label-space; the per-event path
                    # raises the canonical ValueError at the right
                    # stream position, and nothing is interned.
                    if run:
                        segments.append(run)
                        run = []
                    segments.append((kinds[code], u, v))
                    continue
                try:
                    swap = v < u
                except TypeError:
                    swap = repr(v) < repr(u)
                if swap:
                    u_index, v_index = v_index, u_index
                    u, v = v, u
                uid = ids[u_index]
                if uid < 0:
                    uid = ids[u_index] = intern(u)
                vid = ids[v_index]
                if vid < 0:
                    vid = ids[v_index] = intern(v)
                run.append((kinds[code], uid, vid))
                continue
            if v_index != no_vertex:
                raise ValueError(
                    "corrupt event frame: vertex event carries a second "
                    "endpoint"
                )
            if run:
                segments.append(run)
                run = []
            kind = kinds[code]
            label = labels[u_index]
            if kind is add_vertex and ids[u_index] < 0:
                ids[u_index] = intern(label)
            segments.append((kind, label, None))
        if run:
            segments.append(run)
        return segments


class DeltaBatchDecoder(_ColumnarDecodeMixin):
    """Stateful version-2/3 frame reader that yields raw label batches.

    The interner-free counterpart of :class:`FrameDecoder`: it mirrors a
    :class:`FrameEncoder`'s cumulative vertex table but performs no
    interning and no segmentation — :meth:`decode` returns a batch
    ``StreamingGraphClusterer.apply_many`` ingests as it is. A version-3
    columnar frame becomes one :class:`EventColumns` batch. A version-2
    frame of at least :data:`_V2_COLUMNS_MIN_EVENTS` events becomes one
    too when every event is an edge event and every label so far is an
    int: int64 label arrays gathered through the version-3 table mirror
    plus an array of :data:`~repro.streams.events.EVENT_KINDS` codes,
    which the numpy kernel splits by kind without a per-event loop.
    Every other version-2 frame decodes to plain ``(kind, u, v)`` label
    tuples. A corrupt frame raises the same ``ValueError`` either way.
    The streaming service decodes client frames with one of these per
    connection, so the session layer never sees wire bytes.
    """

    __slots__ = ("_labels", "_table_arr", "_table_mirrored", "_table_all_int")

    def __init__(self, labels: Optional[Iterable] = None) -> None:
        self._labels: List = list(labels) if labels is not None else []
        self._init_column_cache()

    @property
    def table_size(self) -> int:
        """Cumulative vertex-table entry count."""
        return len(self._labels)

    def decode(self, data) -> Union[List[RawEvent], EventColumns]:
        """Decode one delta frame (table grows)."""
        if len(data) and data[0] == COLUMNAR_CODEC_VERSION:
            return self._decode_columns(data)
        try:
            version, new_count = _HEADER.unpack_from(data, 0)
        except struct.error:
            raise ValueError("corrupt event frame: truncated header") from None
        if version != DELTA_CODEC_VERSION:
            raise ValueError(
                f"corrupt event frame: unsupported delta codec version "
                f"{version} (this decoder reads {DELTA_CODEC_VERSION})"
            )
        labels = self._labels
        offset = _HEADER.size
        fresh: List[object] = []
        try:
            offset = _decode_entries(data, offset, new_count, fresh)
            (count,) = _U32.unpack_from(data, offset)
            offset += 4
        except (struct.error, IndexError, UnicodeDecodeError) as error:
            raise ValueError(f"corrupt event frame: {error}") from None
        if count >= _V2_COLUMNS_MIN_EVENTS and offset + 12 * count == len(data):
            labels.extend(fresh)
            fresh = []
            columns = self._decode_edge_columns(data, offset, count)
            if columns is not None:
                return columns
        try:
            flat = struct.unpack_from(f"<{3 * count}I", data, offset)
        except struct.error as error:
            raise ValueError(f"corrupt event frame: {error}") from None
        if offset + 12 * count != len(data):
            raise ValueError(
                f"corrupt event frame: {len(data) - offset - 12 * count} "
                "trailing bytes"
            )
        labels.extend(fresh)
        table_count = len(labels)
        kinds = EVENT_KINDS
        edge_codes = _EDGE_CODES
        no_vertex = _NO_VERTEX
        events: List[RawEvent] = []
        append = events.append
        for i in range(0, 3 * count, 3):
            code, u_index, v_index = flat[i], flat[i + 1], flat[i + 2]
            if code >= len(kinds):
                raise ValueError(f"corrupt event frame: unknown kind code {code}")
            if u_index >= table_count:
                raise ValueError(
                    f"corrupt event frame: vertex index {u_index} out of range"
                )
            if code in edge_codes:
                if v_index >= table_count:
                    raise ValueError(
                        "corrupt event frame: edge event with missing or "
                        f"out-of-range endpoint index {v_index}"
                    )
                append((kinds[code], labels[u_index], labels[v_index]))
            else:
                if v_index != no_vertex:
                    raise ValueError(
                        "corrupt event frame: vertex event carries a second "
                        "endpoint"
                    )
                append((kinds[code], labels[u_index], None))
        return events

    def _decode_edge_columns(self, data, offset: int, count: int):
        """The ``count`` version-2 triplets at ``offset`` as columns, or
        None when the tuple decode must answer: a vertex event, a label
        that is not an int, or a corrupt triplet (whose error the tuple
        loop raises with its exact message)."""
        if not self._sync_table_array():
            return None
        triplets = _np.frombuffer(
            data, dtype="<u4", count=3 * count, offset=offset
        ).reshape(count, 3)
        code_max, u_max, v_max = triplets.max(axis=0).tolist()
        table_count = len(self._labels)
        if code_max > _MAX_EDGE_CODE or u_max >= table_count or v_max >= table_count:
            return None
        table = self._table_arr
        return EventColumns(
            us=table[triplets[:, 1]],
            vs=table[triplets[:, 2]],
            kinds=triplets[:, 0].astype(_np.int8),
        )


# ----------------------------------------------------------------------
# Wire layer (length-prefixed messages + handshake)
# ----------------------------------------------------------------------
def pack_wire_message(op: bytes, payload: bytes = b"") -> bytes:
    """One length-prefixed wire message: ``u32 length | op | payload``.

    ``op`` must be a single byte; the length counts the opcode plus the
    payload, so a reader can bound its allocation before reading either.
    """
    if len(op) != 1:
        raise ValueError(f"wire opcode must be a single byte, got {op!r}")
    return _U32.pack(1 + len(payload)) + op + payload


def wire_message_parts(op: bytes, payload: bytes = b"") -> Tuple[bytes, bytes]:
    """:func:`pack_wire_message` in scatter-gather form.

    Returns ``(prefix, payload)`` where the prefix is the length word
    plus the opcode. Callers hand both parts to ``writelines`` /
    ``sendmsg`` so a large payload is never copied into a fresh
    contiguous message buffer just to prepend five bytes.
    """
    if len(op) != 1:
        raise ValueError(f"wire opcode must be a single byte, got {op!r}")
    return _U32.pack(1 + len(payload)) + op, payload


def split_wire_message(body) -> Tuple[bytes, memoryview]:
    """Split a received message body into ``(opcode, payload)``.

    ``body`` is everything after the length prefix. The payload comes
    back as a memoryview over ``body`` — frame decoders and
    ``np.frombuffer`` consume it without another copy of the receive
    buffer. An empty body is a framing error (the length prefix promised
    at least the opcode).
    """
    if not len(body):
        raise ValueError("corrupt wire message: empty body")
    view = memoryview(body)
    return bytes(view[:1]), view[1:]


def encode_hello(tenant_id: str, kernel: Optional[str] = None) -> bytes:
    """The HELLO handshake payload naming ``tenant_id``.

    ``kernel`` (``"scalar"`` / ``"numpy"``) appends the optional kernel
    byte declaring which batch kernel the tenant's session must run;
    ``None`` omits the byte and leaves the choice to the server default.
    Old servers reject the extra byte cleanly (length mismatch), old
    clients never send it — the handshake stays wire-version 1.
    """
    raw = tenant_id.encode("utf-8")
    if not raw or len(raw) > 0xFFFF:
        raise ValueError(
            f"tenant id must encode to 1..65535 utf-8 bytes, got {len(raw)}"
        )
    head = WIRE_MAGIC + bytes((WIRE_VERSION,)) + _U16.pack(len(raw)) + raw
    if kernel is None:
        return head
    code = _KERNEL_CODES.get(kernel)
    if code is None:
        raise ValueError(
            f"unknown kernel {kernel!r} (expected one of "
            f"{sorted(_KERNEL_CODES)})"
        )
    return head + bytes((code,))


def decode_hello(payload) -> Tuple[str, Optional[str]]:
    """Validate a HELLO payload; returns ``(tenant_id, kernel)``.

    ``kernel`` is ``None`` when the client left the choice to the
    server. Raises ``ValueError`` for a wrong magic, an unsupported wire
    version, a malformed/truncated tenant id, or an unknown kernel code
    — the server rejects the connection before touching any session
    state.
    """
    prefix = len(WIRE_MAGIC)
    if payload[:prefix] != WIRE_MAGIC:
        raise ValueError(
            f"bad handshake: expected magic {WIRE_MAGIC!r}, "
            f"got {bytes(payload[:prefix])!r}"
        )
    if len(payload) < prefix + 3:
        raise ValueError("bad handshake: truncated header")
    version = payload[prefix]
    if version != WIRE_VERSION:
        raise ValueError(
            f"bad handshake: unsupported wire version {version} "
            f"(this build speaks {WIRE_VERSION})"
        )
    (length,) = _U16.unpack_from(payload, prefix + 1)
    raw = payload[prefix + 3 : prefix + 3 + length]
    trailer = payload[prefix + 3 + length :]
    if len(raw) != length or not length or len(trailer) > 1:
        raise ValueError(
            f"bad handshake: tenant id length {length} does not match "
            f"{len(payload) - prefix - 3} payload bytes"
        )
    kernel = None
    if len(trailer):
        kernel = _KERNEL_NAMES.get(trailer[0])
        if kernel is None:
            raise ValueError(
                f"bad handshake: unknown kernel code {trailer[0]}"
            )
    try:
        return bytes(raw).decode("utf-8"), kernel
    except UnicodeDecodeError:
        raise ValueError("bad handshake: tenant id is not valid utf-8") from None
