"""Vertex interning: arbitrary hashable labels ↔ dense ``u32`` ids.

The hot paths of the streaming clusterer (reservoir updates, adjacency
maintenance, connectivity queries) used to operate directly on vertex
*labels* — arbitrary hashable objects — paying label hashing and tuple
allocation on every event. :class:`VertexInterner` assigns each distinct
label a dense integer id at first sight, so everything past the
ingestion boundary works on small ints: edge keys pack into a single
``(u32 << 32) | u32`` int, adjacency becomes list-indexed, and dict keys
hash trivially. Labels reappear only at the API boundary
(snapshots, ``reservoir_edges``, checkpoints).

Determinism contract
--------------------
Ids are assigned in *first-appearance order* of the (canonicalized)
event stream, so two runs consuming the same events — per-event or
batched, on either kernel, inline, in a pipeline worker or in a served
tenant — build the identical table. Every one of them hands labels to
the clusterer, the only place they are interned: the wire codec
(:mod:`repro.streams.codec`) ships labels, not ids. The table
round-trips through :meth:`get_state`/:meth:`from_state` so a restored
clusterer keeps its exact label↔id mapping and future checkpoints stay
byte-identical to an uninterrupted run's.

Ids are never reused: a deleted vertex keeps its id (the table is
append-only). This is what makes checkpoint determinism trivial and
costs one table slot per distinct label ever seen.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional

__all__ = ["MAX_VERTEX_ID", "VertexInterner"]

#: Ids must pack two-per-64-bit-int in edge keys, so the table is capped
#: at the u32 range (4.29 billion distinct labels per clusterer shard).
MAX_VERTEX_ID = 0xFFFFFFFF


class VertexInterner:
    """Insertion-ordered bijection between vertex labels and dense ids.

    >>> interner = VertexInterner()
    >>> interner.intern("a"), interner.intern("b"), interner.intern("a")
    (0, 1, 0)
    >>> interner.label_of(1)
    'b'
    """

    __slots__ = ("_ids", "_labels")

    def __init__(self, labels: Iterable[Hashable] = ()) -> None:
        self._ids: dict = {}
        self._labels: List[Hashable] = []
        for label in labels:
            self.intern(label)

    def intern(self, label: Hashable) -> int:
        """Return ``label``'s id, assigning the next dense id if new."""
        ids = self._ids
        vid = ids.get(label)
        if vid is None:
            labels = self._labels
            vid = len(labels)
            if vid > MAX_VERTEX_ID:
                raise OverflowError(
                    f"vertex intern table is full ({MAX_VERTEX_ID + 1} labels)"
                )
            ids[label] = vid
            labels.append(label)
        return vid

    def id_of(self, label: Hashable) -> Optional[int]:
        """``label``'s id, or None if it was never interned."""
        return self._ids.get(label)

    def label_of(self, vid: int) -> Hashable:
        """The label behind ``vid``; raises ``IndexError`` for unknown ids."""
        return self._labels[vid]

    def labels(self) -> List[Hashable]:
        """All labels in id order (copy; index == id)."""
        return list(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._ids

    def __repr__(self) -> str:
        return f"VertexInterner(size={len(self._labels)})"

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """Serializable state: the label list in id order."""
        return {"labels": list(self._labels)}

    @classmethod
    def from_state(cls, state: dict) -> "VertexInterner":
        """Reconstruct an interner with the exact same label↔id mapping.

        A duplicated label can never come from :meth:`get_state` and
        would silently alias two ids, so it raises ``ValueError``.
        """
        interner = cls()
        ids = interner._ids
        labels = interner._labels
        for label in state["labels"]:
            if label in ids:
                raise ValueError(
                    f"corrupt intern table: duplicate label {label!r}"
                )
            ids[label] = len(labels)
            labels.append(label)
        return interner
