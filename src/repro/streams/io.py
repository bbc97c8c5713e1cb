"""Reading and writing edge lists and event streams.

Formats
-------
*Edge list* — one edge per line, two whitespace-separated vertex ids;
``#`` comments and blank lines ignored (the SNAP convention).

*Event stream* — one event per line::

    + u v      # add edge
    - u v      # delete edge
    +v u       # add vertex
    -v u       # delete vertex

Vertex ids are parsed as ints when possible, kept as strings otherwise.

Error handling mirrors the clusterer's ``strict`` semantics: by default
a malformed line raises :class:`~repro.errors.StreamError` with
``file:line`` context; with ``strict=False`` malformed lines are skipped
and (optionally) collected, so a long ingest survives a few bad records.

Self-loop policy
----------------
The clustering model has no use for self-loops (an edge cannot merge a
vertex with itself), so a self-loop line is *malformed input*, exactly
like a line with too few fields: every reader in this module —
:func:`read_edge_list`, :func:`read_event_stream`,
:func:`read_event_stream_raw` — raises :class:`StreamError` on one when
``strict`` and skips/collects it when not. No reader drops self-loops
silently; a clean run means the input contained none.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Optional, TextIO, Union

from repro.errors import StreamError
from repro.streams.events import (
    Edge,
    EdgeEvent,
    EventColumns,
    EventKind,
    RawEvent,
    add_edge,
    add_vertex,
    delete_edge,
    delete_vertex,
)

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_event_stream",
    "read_event_stream_raw",
    "read_event_batches",
    "read_event_columns",
    "write_event_stream",
]

PathOrFile = Union[str, Path, TextIO]


def _open_for_read(source: PathOrFile):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def _source_name(source: PathOrFile) -> str:
    if isinstance(source, (str, Path)):
        return str(source)
    return getattr(source, "name", "<stream>")


def _open_for_write(target: PathOrFile):
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="utf-8"), True
    return target, False


def _parse_vertex(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def read_edge_list(
    source: PathOrFile,
    *,
    strict: bool = True,
    errors: Optional[List[str]] = None,
) -> List[Edge]:
    """Parse an edge-list file; skips comments and blank lines.

    A malformed line — too few fields, or a self-loop (see the module
    docstring) — raises :class:`StreamError` with ``file:line`` context
    when ``strict`` (the default). With ``strict=False`` it is skipped
    instead; pass a list as ``errors`` to collect one message per
    skipped line (``len(errors)`` is the malformed-line count).
    """
    name = _source_name(source)
    handle, owned = _open_for_read(source)
    try:
        edges: List[Edge] = []
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                message = f"{name}:{line_number}: expected two vertex ids: {stripped!r}"
            else:
                u, v = _parse_vertex(parts[0]), _parse_vertex(parts[1])
                if u != v:
                    edges.append((u, v))
                    continue
                message = (
                    f"{name}:{line_number}: self-loop edges are not "
                    f"allowed: ({u!r}, {v!r})"
                )
            if strict:
                raise StreamError(message)
            if errors is not None:
                errors.append(message)
        return edges
    finally:
        if owned:
            handle.close()


def write_edge_list(edges: Iterable[Edge], target: PathOrFile) -> int:
    """Write edges one per line; returns the number written."""
    handle, owned = _open_for_write(target)
    try:
        count = 0
        for u, v in edges:
            handle.write(f"{u} {v}\n")
            count += 1
        return count
    finally:
        if owned:
            handle.close()


_EVENT_PREFIX = {
    EventKind.ADD_EDGE: "+",
    EventKind.DELETE_EDGE: "-",
    EventKind.ADD_VERTEX: "+v",
    EventKind.DELETE_VERTEX: "-v",
}


def write_event_stream(events: Iterable[EdgeEvent], target: PathOrFile) -> int:
    """Serialize an event stream; returns the number of events written."""
    handle, owned = _open_for_write(target)
    try:
        count = 0
        for event in events:
            prefix = _EVENT_PREFIX[event.kind]
            if event.is_edge_event:
                handle.write(f"{prefix} {event.u} {event.v}\n")
            else:
                handle.write(f"{prefix} {event.u}\n")
            count += 1
        return count
    finally:
        if owned:
            handle.close()


def read_event_stream(
    source: PathOrFile,
    *,
    strict: bool = True,
    errors: Optional[List[str]] = None,
) -> Iterator[EdgeEvent]:
    """Parse an event-stream file lazily (one event per line).

    A malformed line raises :class:`StreamError` with ``file:line``
    context when ``strict`` (the default). With ``strict=False`` it is
    skipped instead; pass a list as ``errors`` to collect one message
    per skipped line — mirroring the clusterer's own ``strict`` knob, so
    a long-running ingest can tolerate occasional bad records.
    """
    name = _source_name(source)
    handle, owned = _open_for_read(source)
    try:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            op = parts[0]
            try:
                if op == "+" and len(parts) == 3:
                    yield add_edge(_parse_vertex(parts[1]), _parse_vertex(parts[2]))
                elif op == "-" and len(parts) == 3:
                    yield delete_edge(_parse_vertex(parts[1]), _parse_vertex(parts[2]))
                elif op == "+v" and len(parts) == 2:
                    yield add_vertex(_parse_vertex(parts[1]))
                elif op == "-v" and len(parts) == 2:
                    yield delete_vertex(_parse_vertex(parts[1]))
                else:
                    raise ValueError(f"unrecognized event syntax: {stripped!r}")
            except ValueError as error:
                message = f"{name}:{line_number}: {error}"
                if strict:
                    raise StreamError(message) from None
                if errors is not None:
                    errors.append(message)
    finally:
        if owned:
            handle.close()


_RAW_KIND = {
    "+": EventKind.ADD_EDGE,
    "-": EventKind.DELETE_EDGE,
    "+v": EventKind.ADD_VERTEX,
    "-v": EventKind.DELETE_VERTEX,
}


#: Token-cache bound for ``intern=True`` readers: caps parser memory on
#: adversarial streams where every token is distinct (the cache restarts
#: once this many distinct tokens have been seen).
_INTERN_CACHE_LIMIT = 1 << 20


def read_event_stream_raw(
    source: PathOrFile,
    *,
    strict: bool = True,
    errors: Optional[List[str]] = None,
    intern: bool = False,
) -> Iterator[RawEvent]:
    """:func:`read_event_stream` yielding raw ``(kind, u, v)`` tuples.

    The single-pass parse skips :class:`EdgeEvent` construction (and its
    per-event canonicalization) entirely — the batched ingestion path
    (``apply_many``) canonicalizes in bulk. Errors carry the same
    ``file:line`` context as :func:`read_event_stream`, including
    self-loop edges, which the :class:`EdgeEvent` constructor would have
    rejected and are therefore still reported here rather than deep in
    the clusterer.

    ``intern=True`` caches parsed vertex tokens, so a token seen before
    skips re-parsing and repeated occurrences share one object. Values
    are identical either way — this only trades a bounded dict (cleared
    after ``2**20`` distinct tokens) for parse time, which pays off on
    real streams where each vertex id recurs many times. The pipeline
    producer (:mod:`repro.core.pipeline`) reads with it on.
    """
    name = _source_name(source)
    handle, owned = _open_for_read(source)
    raw_kind = _RAW_KIND
    add_edge_kind = EventKind.ADD_EDGE
    delete_edge_kind = EventKind.DELETE_EDGE
    cache: Optional[dict] = {} if intern else None
    try:
        for line_number, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            kind = raw_kind.get(parts[0])
            if kind is add_edge_kind or kind is delete_edge_kind:
                if len(parts) == 3:
                    if cache is None:
                        u = _parse_vertex(parts[1])
                        v = _parse_vertex(parts[2])
                    else:
                        token = parts[1]
                        u = cache.get(token)
                        if u is None:
                            u = cache[token] = _parse_vertex(token)
                        token = parts[2]
                        v = cache.get(token)
                        if v is None:
                            v = cache[token] = _parse_vertex(token)
                        if len(cache) > _INTERN_CACHE_LIMIT:
                            cache = {}
                    if u != v:
                        yield (kind, u, v)
                        continue
                    message = (
                        f"{name}:{line_number}: self-loop edges are not "
                        f"allowed: ({u!r}, {v!r})"
                    )
                else:
                    message = (
                        f"{name}:{line_number}: unrecognized event syntax: "
                        f"{line.strip()!r}"
                    )
            elif kind is not None and len(parts) == 2:
                # Vertex events are rare relative to edges; not cached.
                yield (kind, _parse_vertex(parts[1]), None)
                continue
            else:
                message = (
                    f"{name}:{line_number}: unrecognized event syntax: "
                    f"{line.strip()!r}"
                )
            if strict:
                raise StreamError(message)
            if errors is not None:
                errors.append(message)
    finally:
        if owned:
            handle.close()


def read_event_batches(
    source: PathOrFile,
    batch_size: int,
    *,
    strict: bool = True,
    errors: Optional[List[str]] = None,
    intern: bool = False,
) -> Iterator[List[RawEvent]]:
    """Read an event stream as batches of raw tuples.

    Groups :func:`read_event_stream_raw` output into lists of up to
    ``batch_size`` events, sized for ``apply_many``. The final batch may
    be shorter; empty streams yield nothing. ``intern`` is forwarded to
    the raw reader (cache parsed vertex tokens).
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    batch: List[RawEvent] = []
    append = batch.append
    for event in read_event_stream_raw(
        source, strict=strict, errors=errors, intern=intern
    ):
        append(event)
        if len(batch) == batch_size:
            yield batch
            batch = []
            append = batch.append
    if batch:
        yield batch


def read_event_columns(
    source: PathOrFile,
    batch_size: int,
    *,
    strict: bool = True,
    errors: Optional[List[str]] = None,
    intern: bool = False,
) -> Iterator[EventColumns]:
    """Read an event stream as :class:`EventColumns` batches.

    Column (struct-of-arrays) counterpart of :func:`read_event_batches`,
    sized for the batch kernel: a batch that is ``ADD_EDGE``
    throughout is emitted with ``kinds=None``, which ``apply_many``
    vectorizes as a single run without inspecting per-event kinds.
    Mixed batches carry their kind column and are segmented by the
    kernel. Parsing, error handling, and ``intern`` are exactly
    :func:`read_event_stream_raw`'s.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    add_edge = EventKind.ADD_EDGE
    kinds: list = []
    us: list = []
    vs: list = []
    all_add = True
    for kind, u, v in read_event_stream_raw(
        source, strict=strict, errors=errors, intern=intern
    ):
        kinds.append(kind)
        us.append(u)
        vs.append(v)
        if kind is not add_edge:
            all_add = False
        if len(us) == batch_size:
            yield EventColumns(us=us, vs=vs, kinds=None if all_add else kinds)
            kinds, us, vs = [], [], []
            all_add = True
    if us:
        yield EventColumns(us=us, vs=vs, kinds=None if all_add else kinds)
