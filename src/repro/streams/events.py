"""Stream event model.

A streaming graph is a (possibly infinite) sequence of :class:`EdgeEvent`
values. Following the paper, the stream may contain **vertex or edge
additions and deletions**; the clusterer consumes them one at a time in an
online, incremental fashion.

Vertices are arbitrary hashable identifiers (ints in all our generators).
Edges are undirected and are canonicalized so that ``(u, v)`` and
``(v, u)`` denote the same edge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Optional, Tuple

__all__ = [
    "Vertex",
    "Edge",
    "EventKind",
    "EVENT_KINDS",
    "EdgeEvent",
    "EventColumns",
    "RawEvent",
    "canonical_edge",
    "add_edge",
    "delete_edge",
    "add_vertex",
    "delete_vertex",
    "events_from_edges",
    "count_kinds",
    "concat_event_batches",
]

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

#: Lightweight event representation for the batched fast path: a plain
#: ``(kind, u, v)`` tuple (``v=None`` for vertex events). Unlike
#: :class:`EdgeEvent` it is *not* validated or canonicalized at
#: construction — ``StreamingGraphClusterer.apply_many`` does both in
#: bulk, raising the same errors an :class:`EdgeEvent` would.
RawEvent = Tuple["EventKind", Vertex, Optional[Vertex]]


class EventKind(enum.Enum):
    """The four update kinds the paper's stream model supports."""

    ADD_EDGE = "add_edge"
    DELETE_EDGE = "delete_edge"
    ADD_VERTEX = "add_vertex"
    DELETE_VERTEX = "delete_vertex"


#: Kind codes: ``EVENT_KINDS[code]`` is the kind an integer code stands
#: for, both on the wire (:mod:`repro.streams.codec`) and in an
#: array-form :attr:`EventColumns.kinds` column. The order is fixed; a
#: new kind must be appended, never inserted.
EVENT_KINDS: Tuple[EventKind, ...] = (
    EventKind.ADD_EDGE,
    EventKind.DELETE_EDGE,
    EventKind.ADD_VERTEX,
    EventKind.DELETE_VERTEX,
)


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical (sorted) form of the undirected edge ``{u, v}``.

    Self-loops are rejected: the clustering model has no use for them and
    allowing them would complicate connectivity bookkeeping silently.
    """
    if u == v:
        raise ValueError(f"self-loop edges are not allowed: ({u!r}, {v!r})")
    # Sort by repr as a total order over heterogeneous hashables; for the
    # homogeneous int/str vertices used in practice this is the natural order.
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass(frozen=True, slots=True)
class EdgeEvent:
    """One update in a streaming graph.

    For edge events both ``u`` and ``v`` are set; for vertex events only
    ``u`` is meaningful and ``v`` is ``None``.
    """

    kind: EventKind
    u: Vertex
    v: Vertex | None = None

    def __post_init__(self) -> None:
        if self.kind in (EventKind.ADD_EDGE, EventKind.DELETE_EDGE):
            if self.v is None:
                raise ValueError(f"{self.kind.value} event requires two endpoints")
            cu, cv = canonical_edge(self.u, self.v)
            object.__setattr__(self, "u", cu)
            object.__setattr__(self, "v", cv)
        else:
            if self.v is not None:
                raise ValueError(f"{self.kind.value} event takes a single vertex")

    @property
    def edge(self) -> Edge:
        """The canonical edge for edge events; raises for vertex events."""
        if self.v is None:
            raise ValueError(f"{self.kind.value} event has no edge")
        return (self.u, self.v)

    @property
    def is_edge_event(self) -> bool:
        """True for ADD_EDGE / DELETE_EDGE events."""
        return self.v is not None


@dataclass(slots=True)
class EventColumns:
    """A batch of raw events in column (struct-of-arrays) form.

    The batch readers (:func:`repro.streams.io.read_event_columns`,
    :func:`repro.streams.io.insert_only_columns`) emit these so the
    batch kernel can consume a whole batch without building a tuple
    per event. ``kinds`` is ``None`` when *every* event in the
    batch is an ``ADD_EDGE`` — the overwhelmingly common case, which
    the kernel then vectorizes in a single run. Like :data:`RawEvent`
    tuples, columns are neither validated nor canonicalized here;
    ``apply_many`` does both in bulk.

    Columns are lists from the stream readers but may be numpy int64
    arrays when they come off the columnar wire decode
    (:mod:`repro.streams.codec`: version-3 frames, and large version-2
    frames of edge events); every consumer of ``us``/``vs`` must handle
    both. Likewise ``kinds`` is either a list of :class:`EventKind` or,
    from the wire decode, an integer array of :data:`EVENT_KINDS` codes.
    """

    us: list
    vs: list
    kinds: Optional[list] = None

    def __len__(self) -> int:
        return len(self.us)

    def to_events(self) -> list:
        """The same batch as a list of raw ``(kind, u, v)`` tuples.

        Array-backed columns convert through ``tolist()`` so the tuples
        carry plain Python ints — scalar-path consumers (and checkpoint
        byte-identity) never see numpy scalar types.
        """
        us = self.us if type(self.us) is list else self.us.tolist()
        vs = self.vs if type(self.vs) is list else self.vs.tolist()
        kinds = self.kinds
        if kinds is None:
            add = EventKind.ADD_EDGE
            return [(add, u, v) for u, v in zip(us, vs)]
        if type(kinds) is not list:
            kinds = list(map(EVENT_KINDS.__getitem__, kinds.tolist()))
        return list(zip(kinds, us, vs))

    def slice(self, start: int, stop: int) -> "EventColumns":
        """The sub-batch ``[start:stop)`` (zero-copy for array columns)."""
        if start == 0 and stop >= len(self.us):
            return self
        kinds = None if self.kinds is None else self.kinds[start:stop]
        return EventColumns(
            us=self.us[start:stop], vs=self.vs[start:stop], kinds=kinds
        )


def concat_event_batches(batches: list):
    """Merge decoded event batches into one apply-ready batch.

    Input items are raw-tuple lists and/or :class:`EventColumns` (the
    two shapes a frame decode produces); the service drain loop uses
    this to coalesce adjacent small client frames into one kernel-sized
    ``apply_many``. All-``ADD_EDGE`` columns concatenate column-wise
    (staying vectorizable); any mix falls back to one flat tuple list,
    which preserves event order exactly.
    """
    if len(batches) == 1:
        return batches[0]
    if all(type(b) is EventColumns and b.kinds is None for b in batches):
        us_parts = [b.us for b in batches]
        vs_parts = [b.vs for b in batches]
        if all(type(p) is list for p in us_parts) and all(
            type(p) is list for p in vs_parts
        ):
            us: list = []
            vs: list = []
            for up, vp in zip(us_parts, vs_parts):
                us.extend(up)
                vs.extend(vp)
            return EventColumns(us=us, vs=vs)
        import numpy as np

        if all(isinstance(p, np.ndarray) for p in us_parts + vs_parts):
            return EventColumns(
                us=np.concatenate(us_parts), vs=np.concatenate(vs_parts)
            )
    merged: list = []
    for batch in batches:
        merged.extend(
            batch.to_events() if type(batch) is EventColumns else batch
        )
    return merged


def add_edge(u: Vertex, v: Vertex) -> EdgeEvent:
    """Shorthand constructor for an ADD_EDGE event."""
    return EdgeEvent(EventKind.ADD_EDGE, u, v)


def delete_edge(u: Vertex, v: Vertex) -> EdgeEvent:
    """Shorthand constructor for a DELETE_EDGE event."""
    return EdgeEvent(EventKind.DELETE_EDGE, u, v)


def add_vertex(u: Vertex) -> EdgeEvent:
    """Shorthand constructor for an ADD_VERTEX event."""
    return EdgeEvent(EventKind.ADD_VERTEX, u)


def delete_vertex(u: Vertex) -> EdgeEvent:
    """Shorthand constructor for a DELETE_VERTEX event.

    Deleting a vertex implicitly deletes all its incident edges; the
    clusterer expands this internally.
    """
    return EdgeEvent(EventKind.DELETE_VERTEX, u)


def events_from_edges(edges: Iterable[Edge]) -> Iterator[EdgeEvent]:
    """Turn a plain edge list into an insert-only event stream."""
    for u, v in edges:
        yield add_edge(u, v)


def count_kinds(events: Iterable[EdgeEvent]) -> dict:
    """Count events per kind (consumes the iterable); useful in tests."""
    counts: dict = {kind: 0 for kind in EventKind}
    for event in events:
        counts[event.kind] += 1
    return counts
