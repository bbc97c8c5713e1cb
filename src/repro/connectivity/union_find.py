"""Disjoint-set (union-find) structure.

:class:`UnionFind` — union by size + path compression; near-O(1)
amortized. Used by offline baselines, static component extraction, and
the sharded clusterer's boundary merger. It accepts arbitrary hashable
elements and creates them lazily.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set

__all__ = ["UnionFind"]


class UnionFind:
    """Classic DSU with union by size and path compression.

    >>> uf = UnionFind()
    >>> uf.union(1, 2)
    True
    >>> uf.connected(1, 2)
    True
    >>> uf.union(1, 2)   # already together
    False
    """

    def __init__(self, elements: Iterable[Hashable] | None = None) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        self._num_sets = 0
        if elements is not None:
            for element in elements:
                self.add(element)

    def add(self, x: Hashable) -> bool:
        """Register ``x`` as a singleton set; False if already present."""
        if x in self._parent:
            return False
        self._parent[x] = x
        self._size[x] = 1
        self._num_sets += 1
        return True

    def find(self, x: Hashable) -> Hashable:
        """Return the representative of ``x``'s set (adds ``x`` if new)."""
        if x not in self._parent:
            self.add(x)
            return x
        # Iterative path compression: find root, then re-point the path.
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x: Hashable, y: Hashable) -> bool:
        """Merge the sets of ``x`` and ``y``; False if already merged."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self._size[rx] < self._size[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        self._size[rx] += self._size[ry]
        self._num_sets -= 1
        return True

    def connected(self, x: Hashable, y: Hashable) -> bool:
        """True if ``x`` and ``y`` are in the same set."""
        return self.find(x) == self.find(y)

    def set_size(self, x: Hashable) -> int:
        """Size of the set containing ``x``."""
        return self._size[self.find(x)]

    @property
    def num_sets(self) -> int:
        """Number of disjoint sets over all registered elements."""
        return self._num_sets

    @property
    def num_elements(self) -> int:
        """Number of registered elements."""
        return len(self._parent)

    def groups(self) -> List[Set[Hashable]]:
        """Materialize all sets (O(n)); mainly for snapshots and tests."""
        by_root: Dict[Hashable, Set[Hashable]] = {}
        for element in self._parent:
            by_root.setdefault(self.find(element), set()).add(element)
        return list(by_root.values())

