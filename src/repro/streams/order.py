"""Stream-order transforms.

The same final graph can arrive in many orders; these helpers build the
orders the experiments (and adversarial tests) need.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

from repro.streams.events import (
    Edge,
    EdgeEvent,
    EventColumns,
    EventKind,
    RawEvent,
    add_edge,
    delete_edge,
)
from repro.util.rng import child_seed, make_rng
from repro.util.validation import check_probability

__all__ = [
    "shuffled",
    "insert_only_stream",
    "insert_only_stream_raw",
    "insert_only_columns",
    "insert_delete_stream",
    "adversarial_bridge_first",
]


def shuffled(events: Sequence[EdgeEvent], seed: int = 0) -> List[EdgeEvent]:
    """A uniformly shuffled copy of ``events``."""
    result = list(events)
    make_rng(child_seed(seed, "shuffle")).shuffle(result)
    return result


def insert_only_stream(edges: Iterable[Edge], seed: int | None = 0) -> List[EdgeEvent]:
    """ADD_EDGE events for ``edges``, shuffled when ``seed`` is not None."""
    events = [add_edge(u, v) for u, v in edges]
    if seed is not None:
        make_rng(child_seed(seed, "insert_only")).shuffle(events)
    return events


def insert_only_stream_raw(
    edges: Iterable[Edge], seed: int | None = 0
) -> List[RawEvent]:
    """:func:`insert_only_stream` as raw ``(kind, u, v)`` tuples.

    Skips per-event :class:`EdgeEvent` construction for the batched
    ingestion fast path. The shuffle draws the same permutation as
    :func:`insert_only_stream` for the same seed (it depends only on the
    seed and the list length), so both variants describe the *same*
    stream and drive the clusterer to the same state.
    """
    kind = EventKind.ADD_EDGE
    events: List[RawEvent] = [(kind, u, v) for u, v in edges]
    if seed is not None:
        make_rng(child_seed(seed, "insert_only")).shuffle(events)
    return events


def insert_only_columns(
    edges: Iterable[Edge], batch_size: int, seed: int | None = 0
) -> Iterator[EventColumns]:
    """:func:`insert_only_stream_raw` grouped into :class:`EventColumns`.

    Yields column batches with ``kinds=None`` (the stream is ADD_EDGE by
    construction), the shape the batch kernel consumes without
    per-event inspection. Draws the same permutation as the raw variant
    for the same seed, so all three spellings describe the same stream.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    events = insert_only_stream_raw(edges, seed=seed)
    for start in range(0, len(events), batch_size):
        chunk = events[start : start + batch_size]
        yield EventColumns(
            us=[e[1] for e in chunk], vs=[e[2] for e in chunk]
        )


def insert_delete_stream(
    edges: Sequence[Edge],
    churn: float = 0.3,
    seed: int = 0,
) -> List[EdgeEvent]:
    """An add/delete stream whose final graph is exactly ``edges``.

    Every edge is added; additionally a ``churn`` fraction of the edges
    is deleted and re-added once, with the three occurrences interleaved
    randomly but kept in relative order (add < delete < re-add), so the
    stream is always well-formed and the final state is the full edge
    set. Useful for exercising the deletion path while keeping ground
    truth comparable to the insert-only stream.
    """
    check_probability("churn", churn)
    rng = make_rng(child_seed(seed, "churn"))
    num_churned = int(len(edges) * churn)
    churned = set(rng.sample(range(len(edges)), num_churned)) if num_churned else set()
    # Assign each event a random timestamp, forcing order within an edge.
    keyed: List[tuple] = []
    for index, edge in enumerate(edges):
        if index in churned:
            t1, t2, t3 = sorted(rng.random() for _ in range(3))
            keyed.append((t1, add_edge(*edge)))
            keyed.append((t2, delete_edge(*edge)))
            keyed.append((t3, add_edge(*edge)))
        else:
            keyed.append((rng.random(), add_edge(*edge)))
    keyed.sort(key=lambda pair: pair[0])
    return [event for _, event in keyed]


def adversarial_bridge_first(
    intra_edges: Sequence[Edge],
    bridge_edges: Sequence[Edge],
    seed: int = 0,
) -> List[EdgeEvent]:
    """All inter-community bridges first, then intra edges (worst case).

    Early bridges enter an under-full reservoir with probability 1, so
    this order maximally tempts the clusterer into merging communities —
    used to probe robustness, not as a realistic workload.
    """
    rng = make_rng(child_seed(seed, "adversarial"))
    bridges = [add_edge(u, v) for u, v in bridge_edges]
    rng.shuffle(bridges)
    intra = [add_edge(u, v) for u, v in intra_edges]
    rng.shuffle(intra)
    return bridges + intra
