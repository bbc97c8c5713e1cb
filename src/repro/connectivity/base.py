"""Common interface for fully-dynamic connectivity structures.

The streaming clusterer maintains the connected components of the
*sampled* sub-graph under edge insertions and deletions. Two
implementations are provided:

* :class:`repro.connectivity.labels.ComponentLabels` — component labels
  over the sampled adjacency, O(component) deletions; the clusterer's
  own state and the correctness oracle.
* :class:`repro.connectivity.hdt.HDTConnectivity` — Holm–de
  Lichtenberg–Thorup structure, amortized poly-logarithmic updates; the
  comparator of experiment E9b.

Both implement this interface so they are cross-checkable in tests.
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Set

from repro.streams.events import Vertex

__all__ = ["DynamicConnectivity"]


class DynamicConnectivity(abc.ABC):
    """Fully-dynamic connectivity over an undirected simple graph."""

    @abc.abstractmethod
    def add_vertex(self, v: Vertex) -> bool:
        """Register ``v`` as an isolated vertex; False if already present."""

    @abc.abstractmethod
    def insert_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert edge ``{u, v}`` (creating endpoints as needed).

        Returns True iff the insertion merged two components. Raises
        ``ValueError`` if the edge is already present or is a self-loop.
        """

    @abc.abstractmethod
    def delete_edge(self, u: Vertex, v: Vertex) -> bool:
        """Delete edge ``{u, v}``.

        Returns True iff the deletion split a component. Raises
        ``KeyError`` if the edge is absent.
        """

    @abc.abstractmethod
    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """True if edge ``{u, v}`` is currently present."""

    @abc.abstractmethod
    def connected(self, u: Vertex, v: Vertex) -> bool:
        """True if ``u`` and ``v`` are in the same component.

        Unknown vertices are treated as isolated singletons, so
        ``connected(x, x)`` is True for any ``x`` and ``connected(x, y)``
        is False when either endpoint is unknown (and ``x != y``).
        """

    @abc.abstractmethod
    def component_size(self, v: Vertex) -> int:
        """Number of vertices in ``v``'s component (1 for unknown ``v``)."""

    @abc.abstractmethod
    def component_members(self, v: Vertex) -> Set[Vertex]:
        """The vertex set of ``v``'s component (``{v}`` for unknown ``v``)."""

    @property
    @abc.abstractmethod
    def num_vertices(self) -> int:
        """Number of registered vertices."""

    @property
    @abc.abstractmethod
    def num_components(self) -> int:
        """Number of connected components over registered vertices."""

    @abc.abstractmethod
    def vertices(self) -> Iterator[Vertex]:
        """Iterate over registered vertices."""

    def components(self) -> List[Set[Vertex]]:
        """Materialize all components. O(n log n) generic implementation."""
        remaining = set(self.vertices())
        result: List[Set[Vertex]] = []
        while remaining:
            v = next(iter(remaining))
            members = self.component_members(v)
            remaining -= members
            result.append(members)
        return result

    def remove_vertex_if_isolated(self, v: Vertex) -> bool:
        """Optional hook: drop ``v`` if it has no incident edges.

        Default implementation keeps the vertex (structures that cannot
        cheaply verify isolation may override). Returns False.
        """
        return False
