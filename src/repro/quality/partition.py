"""Immutable vertex partitions (clusterings).

:class:`Partition` is the common currency between the streaming
clusterer, the offline baselines, and the quality metrics: a frozen
assignment of vertices to cluster labels with convenient views.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from typing import (
    Collection, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple, Union,
)

import numpy as np

from repro.streams.events import Vertex

__all__ = ["Partition"]

#: 10**0 .. 10**19, every power of ten below 2**64.
_POWERS_OF_TEN = np.array([10**k for k in range(20)], dtype=np.uint64)
_INT = frozenset({int})


def int64_column(values: Collection) -> Optional[np.ndarray]:
    """``values`` as an int64 array if every one is exactly an ``int``
    (a ``bool`` is not) within int64, else None."""
    # issuperset stops at the first value of another type.
    if not _INT.issuperset(map(type, values)):
        return None
    try:
        return np.fromiter(values, np.int64, count=len(values))
    except OverflowError:
        return None


def repr_order(values: np.ndarray) -> np.ndarray:
    """The indices that sort int64 ``values`` by their ``repr`` strings.

    Decimal strings compare character by character, so every negative
    comes first (``-`` sorts before ``0``), then the digits of the
    magnitude decide, and a string that is a prefix of another sorts
    before it. The key is therefore the sign, then the magnitude padded
    on the right with zeros to the longest digit count, then the digit
    count. Magnitudes are taken in uint64, where ``|INT64_MIN|`` fits,
    and every operand stays uint64: numpy turns a mix of uint64 and
    int64 into float64.
    """
    bits = values.view(np.uint64)
    negative = values < 0
    magnitude = np.where(negative, -bits, bits)
    # The digit count minus one, exactly: the powers 10**1.. not above it.
    extra = np.searchsorted(_POWERS_OF_TEN[1:], magnitude, side="right")
    width = int(extra.max(initial=0)) + 1
    padded = magnitude * _POWERS_OF_TEN[width - 1 - extra]
    nonnegative = (~negative).astype(np.uint64)
    if width <= 17:
        # Sign, padded magnitude and digit count in one key below
        # 64 * 10**17 < 2**64.
        key = (nonnegative * _POWERS_OF_TEN[width] + padded) * np.uint64(32)
        return np.argsort(key + extra.astype(np.uint64))
    return np.lexsort((extra, padded, nonnegative))


class Partition:
    """An immutable clustering of a vertex set.

    Construct from a label mapping or via :meth:`from_clusters`. Labels
    are arbitrary hashables; :meth:`normalized` renames them to dense
    integers ordered by decreasing cluster size (deterministic).

    ``columns`` builds it from two equal-length columns instead, as
    :meth:`~repro.core.StreamingGraphClusterer.snapshot` does: the
    distinct vertices, a list or an int64 array, and their int cluster
    labels, an int64 array. The label mapping is then derived on first
    use.

    >>> p = Partition.from_clusters([{1, 2, 3}, {4}])
    >>> p.num_clusters
    2
    >>> p.same_cluster(1, 3)
    True
    """

    __slots__ = ("_label", "_columns", "_clusters", "_order")

    def __init__(
        self,
        labels: Optional[Mapping[Vertex, object]] = None,
        *,
        columns: Optional[Tuple[Union[List[Vertex], np.ndarray], np.ndarray]] = None,
    ) -> None:
        self._label: Optional[Dict[Vertex, object]] = None
        self._columns = columns
        if columns is None:
            self._label = dict(labels)
        else:
            vertices, numbers = columns
            if not (
                labels is None
                and (isinstance(vertices, list) or vertices.dtype == np.int64)
                and numbers.dtype == np.int64
                and len(vertices) == len(numbers)
            ):
                raise ValueError(
                    "columns must be a list or int64 array of vertices and an "
                    "int64 array of their labels, of equal length, without labels"
                )
        # Every view below is derived on first use and kept: the
        # partition is immutable.
        self._clusters: Optional[Dict[object, FrozenSet[Vertex]]] = None
        self._order: Optional[Tuple[Tuple[Vertex, ...], Tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[Vertex]]) -> "Partition":
        """Build a partition from disjoint vertex groups.

        Raises ``ValueError`` if a vertex appears in two groups.
        """
        labels: Dict[Vertex, object] = {}
        for index, members in enumerate(clusters):
            for vertex in members:
                if vertex in labels:
                    raise ValueError(f"vertex {vertex!r} appears in multiple clusters")
                labels[vertex] = index
        return cls(labels)

    @classmethod
    def singletons(cls, vertices: Iterable[Vertex]) -> "Partition":
        """Every vertex in its own cluster."""
        return cls({v: i for i, v in enumerate(vertices)})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def label_of(self, v: Vertex) -> object:
        """Cluster label of ``v``; raises ``KeyError`` for unknown vertices."""
        return self._mapping()[v]

    def get(self, v: Vertex, default: object = None) -> object:
        """Cluster label of ``v`` or ``default``."""
        return self._mapping().get(v, default)

    def same_cluster(self, u: Vertex, v: Vertex) -> bool:
        """True if ``u`` and ``v`` carry the same label."""
        labels = self._mapping()
        return labels[u] == labels[v]

    def members(self, label: object) -> FrozenSet[Vertex]:
        """Vertices carrying ``label``."""
        return self._groups()[label]

    def canonical_order(self) -> Tuple[Tuple[Vertex, ...], Tuple[int, ...]]:
        """Every vertex in canonical order, and the cluster sizes in it.

        The canonical order lists clusters by decreasing size, breaks a
        size tie by the cluster's smallest member ``repr``, and lists
        each cluster's members by ``repr``. Cluster ``i`` is the run of
        ``sizes[i]`` vertices after the first ``sum(sizes[:i])``.

        The order assumes that distinct vertices have distinct ``repr``
        strings, as ints, strs and tuples of them do. Clusters are
        disjoint, so under that assumption two equal-size clusters'
        sorted ``repr`` lists already differ in their first elements,
        and the order is the same as sorting the clusters by
        ``(-size, sorted member reprs)``.

        One pass computes it. It ranks the vertices by ``repr``: with
        numpy on a numeric key (:func:`repr_order`) when every vertex is
        an int within int64, else by a stable sort of their ``repr``
        strings. Then numpy orders by int keys: each cluster's size and
        the rank of its smallest member order the clusters, and each
        member's rank orders the lines inside a cluster. It is memoized;
        both tuples are shared by every call.
        """
        if self._order is None:
            if self._columns is None:
                labels = self._label
                values = labels.values()
                numbers = dict(zip(dict.fromkeys(values), count()))
                vertices = list(labels)
                cluster = np.fromiter(
                    map(numbers.__getitem__, values), dtype=np.int64, count=len(labels)
                )
            else:
                vertices, cluster = self._columns
            column = vertices if isinstance(vertices, np.ndarray) else int64_column(vertices)
            if column is None:
                reprs = list(map(repr, vertices))
                # A Python sort: a numpy unicode array of the reprs would
                # be V times the longest repr wide, so one long label
                # could blow it up.
                ranked = np.array(
                    sorted(range(len(vertices)), key=reprs.__getitem__), dtype=np.intp
                )
            else:
                ranked = repr_order(column)
            # Each cluster's size, and its smallest rank: the first place
            # it takes in rank order (rank r is ranked[r]).
            n = len(ranked)
            _, smallest, inverse, sizes = np.unique(
                cluster[ranked], return_index=True, return_inverse=True, return_counts=True
            )
            # Clusters by size descending, then smallest rank; lines by
            # their cluster's place, then rank.
            by_size = np.argsort((n - sizes) * n + smallest)
            place = np.empty_like(by_size)
            place[by_size] = np.arange(len(by_size))
            lines = ranked[np.argsort(place[inverse] * n + np.arange(n))]
            if column is None:
                ordered = tuple(map(vertices.__getitem__, lines.tolist()))
            else:
                ordered = tuple(column[lines].tolist())
            self._order = (ordered, tuple(sizes[by_size].tolist()))
        return self._order

    def clusters(self) -> List[FrozenSet[Vertex]]:
        """All clusters in canonical order: by decreasing size, a size
        tie broken by the smallest member ``repr``
        (:meth:`canonical_order` states the assumption this rests on).

        A fresh list is returned each time so callers may mutate it.
        """
        groups = self._groups()
        # Clusters are contiguous in the order, so their labels, deduped,
        # come out in cluster order.
        ordered = dict.fromkeys(map(self._mapping().__getitem__, self.canonical_order()[0]))
        return [groups[label] for label in ordered]

    def labels(self) -> Dict[Vertex, object]:
        """Vertex → label mapping (copy)."""
        return dict(self._mapping())

    def sizes(self) -> List[int]:
        """Cluster sizes, descending."""
        return list(self.canonical_order()[1])

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return len(self.canonical_order()[1])

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the partition."""
        return len(self)

    @property
    def max_cluster_size(self) -> int:
        """Size of the largest cluster (0 for an empty partition)."""
        sizes = self.canonical_order()[1]
        return sizes[0] if sizes else 0

    def vertices(self) -> Iterator[Vertex]:
        """Iterate covered vertices."""
        return iter(self._mapping())

    def __contains__(self, v: Vertex) -> bool:
        return v in self._mapping()

    def __len__(self) -> int:
        return len(self._columns[0]) if self._label is None else len(self._label)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same grouping regardless of label names."""
        if not isinstance(other, Partition):
            return NotImplemented
        if self._mapping().keys() != other._mapping().keys():
            return False
        return self.cluster_sets() == other.cluster_sets()

    def __hash__(self) -> int:
        return hash(self.cluster_sets())

    def cluster_sets(self) -> FrozenSet[FrozenSet[Vertex]]:
        """The partition as a frozen set of frozen vertex sets."""
        return frozenset(self._groups().values())

    def _mapping(self) -> Dict[Vertex, object]:
        """Vertex → label, derived from the columns on first use."""
        if self._label is None:
            vertices, numbers = self._columns
            if isinstance(vertices, np.ndarray):
                vertices = vertices.tolist()
            self._label = dict(zip(vertices, numbers.tolist()))
        return self._label

    def _groups(self) -> Dict[object, FrozenSet[Vertex]]:
        """Label → members, built on first use."""
        if self._clusters is None:
            groups: Dict[object, List[Vertex]] = {}
            for vertex, label in self._mapping().items():
                groups.setdefault(label, []).append(vertex)
            self._clusters = {
                label: frozenset(members) for label, members in groups.items()
            }
        return self._clusters

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def normalized(self) -> "Partition":
        """Relabel clusters 0..k-1 in canonical order (see :meth:`clusters`)."""
        vertices, sizes = self.canonical_order()
        indices = np.repeat(np.arange(len(sizes)), sizes).tolist()
        return Partition(dict(zip(vertices, indices)))

    def restricted_to(self, vertices: Iterable[Vertex]) -> "Partition":
        """The partition induced on ``vertices`` (unknown ones ignored)."""
        keep = set(vertices)
        return Partition({v: l for v, l in self._mapping().items() if v in keep})

    def merged_small_clusters(self, min_size: int, into_label: object = "_rest") -> "Partition":
        """Coalesce all clusters smaller than ``min_size`` into one.

        Useful when comparing against baselines that do not emit
        singleton clusters.
        """
        labels = self._mapping()
        sizes = Counter(labels.values())
        return Partition(
            {
                vertex: label if sizes[label] >= min_size else into_label
                for vertex, label in labels.items()
            }
        )

    def __repr__(self) -> str:
        return (
            f"Partition(num_vertices={self.num_vertices}, "
            f"num_clusters={self.num_clusters})"
        )
