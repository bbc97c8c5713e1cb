"""Immutable vertex partitions (clusterings).

:class:`Partition` is the common currency between the streaming
clusterer, the offline baselines, and the quality metrics: a frozen
assignment of vertices to cluster labels with convenient views.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.streams.events import Vertex

__all__ = ["Partition"]


class Partition:
    """An immutable clustering of a vertex set.

    Construct from a label mapping or via :meth:`from_clusters`. Labels
    are arbitrary hashables; :meth:`normalized` renames them to dense
    integers ordered by decreasing cluster size (deterministic).

    >>> p = Partition.from_clusters([{1, 2, 3}, {4}])
    >>> p.num_clusters
    2
    >>> p.same_cluster(1, 3)
    True
    """

    __slots__ = ("_label", "_clusters", "_order")

    def __init__(self, labels: Mapping[Vertex, object]) -> None:
        self._label: Dict[Vertex, object] = dict(labels)
        # Both views below are derived on first use and kept: the
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
        return self._label[v]

    def get(self, v: Vertex, default: object = None) -> object:
        """Cluster label of ``v`` or ``default``."""
        return self._label.get(v, default)

    def same_cluster(self, u: Vertex, v: Vertex) -> bool:
        """True if ``u`` and ``v`` carry the same label."""
        return self._label[u] == self._label[v]

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

        One pass computes it: a stable sort of the vertices by ``repr``,
        then numpy on int cluster numbers: each cluster's size and the
        rank of its smallest member, a sort of the clusters by both, and
        a stable sort of the ranked vertices by their cluster's place.
        It is memoized; both tuples are shared by every call.
        """
        if self._order is None:
            vertices = list(self._label)
            values = self._label.values()
            reprs = list(map(repr, vertices))
            # A Python sort: a numpy unicode array of the reprs would be
            # V times the longest repr wide, so one long label could
            # blow it up.
            ranked = np.array(sorted(range(len(vertices)), key=reprs.__getitem__), dtype=np.intp)
            numbers = dict(zip(dict.fromkeys(values), count()))
            cluster = np.fromiter(
                map(numbers.__getitem__, values), dtype=np.intp, count=len(vertices)
            )[ranked]
            # Cluster numbers are 0..k-1, so the unique values index both.
            _, first, counts = np.unique(cluster, return_index=True, return_counts=True)
            by_size = np.lexsort((first, -counts))
            place = np.empty_like(by_size)
            place[by_size] = np.arange(len(by_size))
            lines = ranked[np.argsort(place[cluster], kind="stable")]
            self._order = (
                tuple(map(vertices.__getitem__, lines.tolist())),
                tuple(counts[by_size].tolist()),
            )
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
        ordered = dict.fromkeys(map(self._label.__getitem__, self.canonical_order()[0]))
        return [groups[label] for label in ordered]

    def labels(self) -> Dict[Vertex, object]:
        """Vertex → label mapping (copy)."""
        return dict(self._label)

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
        return len(self._label)

    @property
    def max_cluster_size(self) -> int:
        """Size of the largest cluster (0 for an empty partition)."""
        sizes = self.canonical_order()[1]
        return sizes[0] if sizes else 0

    def vertices(self) -> Iterator[Vertex]:
        """Iterate covered vertices."""
        return iter(self._label)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._label

    def __len__(self) -> int:
        return len(self._label)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same grouping regardless of label names."""
        if not isinstance(other, Partition):
            return NotImplemented
        if self._label.keys() != other._label.keys():
            return False
        return self.cluster_sets() == other.cluster_sets()

    def __hash__(self) -> int:
        return hash(self.cluster_sets())

    def cluster_sets(self) -> FrozenSet[FrozenSet[Vertex]]:
        """The partition as a frozen set of frozen vertex sets."""
        return frozenset(self._groups().values())

    def _groups(self) -> Dict[object, FrozenSet[Vertex]]:
        """Label → members, built on first use."""
        if self._clusters is None:
            groups: Dict[object, List[Vertex]] = {}
            for vertex, label in self._label.items():
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
        return Partition({v: l for v, l in self._label.items() if v in keep})

    def merged_small_clusters(self, min_size: int, into_label: object = "_rest") -> "Partition":
        """Coalesce all clusters smaller than ``min_size`` into one.

        Useful when comparing against baselines that do not emit
        singleton clusters.
        """
        sizes = Counter(self._label.values())
        return Partition(
            {
                vertex: label if sizes[label] >= min_size else into_label
                for vertex, label in self._label.items()
            }
        )

    def __repr__(self) -> str:
        return (
            f"Partition(num_vertices={self.num_vertices}, "
            f"num_clusters={self.num_clusters})"
        )
