"""A per-event model of the streaming clusterer, the tests' oracle.

The clusterer runs every event through its batch kernel, so the tests
need a reference that is not the kernel. This module is one, written the
plainest way: one event at a time, in label space.

* :class:`RandomPairingModel` — random pairing over a seeded
  ``random.Random`` with ``randrange`` draws, in a slot list whose
  victims are swap-removed.
* :class:`ClustererModel` — the clusterer's per-event semantics on top:
  the tracked graph and its malformed events, the vertex universe, the
  policy asked before each admission is committed, and clusters as the
  components of the sample, found by union-find.

Compare a clusterer against it with :func:`assert_matches`.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional

from repro.errors import StreamError, UnsupportedOperationError
from repro.quality import Partition
from repro.streams import EventKind
from repro.streams.events import canonical_edge
from repro.util.rng import child_seed


class RandomPairingModel:
    """Random pairing, one update at a time."""

    def __init__(self, capacity: int, rng: random.Random) -> None:
        self.capacity = capacity
        self.rng = rng
        self.slots: list = []
        self.population = 0
        self.c_bad = 0
        self.c_good = 0

    def offer(self, item):
        """Draw for one insertion: ``(admit, victim)``, with None for no
        victim. The counters are settled whether or not it is committed."""
        self.population += 1
        pending = self.c_bad + self.c_good
        if pending:
            if self.rng.randrange(pending) < self.c_bad:
                self.c_bad -= 1
                return True, None
            self.c_good -= 1
            return False, None
        if len(self.slots) < self.capacity:
            return True, None
        if self.rng.randrange(self.population) < self.capacity:
            return True, self.slots[self.rng.randrange(len(self.slots))]
        return False, None

    def commit(self, item, victim) -> None:
        if item in self.slots:
            raise ValueError(f"duplicate sample item {item!r}")
        if victim is not None:
            self._remove(victim)
        self.slots.append(item)

    def delete(self, item) -> bool:
        if self.population <= 0:
            raise ValueError("delete from an empty population")
        self.population -= 1
        if item in self.slots:
            self._remove(item)
            self.c_bad += 1
            return True
        self.c_good += 1
        return False

    def _remove(self, item) -> None:
        pos = self.slots.index(item)
        last = self.slots.pop()
        if pos < len(self.slots):
            self.slots[pos] = last


class _Components:
    """Components of an edge set over a vertex set, by union-find."""

    def __init__(self, vertices, edges) -> None:
        parent = {v: v for v in vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            parent[find(u)] = find(v)
        self.root = {v: find(v) for v in parent}
        self.sizes = Counter(self.root.values())

    def connected(self, u, v) -> bool:
        return u == v or self.root[u] == self.root[v]

    def component_size(self, v) -> int:
        return self.sizes[self.root[v]]

    @property
    def num_components(self) -> int:
        return len(self.sizes)


class ClustererModel:
    """The streaming clusterer, one event at a time, in label space.

    Sampled keys are the clusterer's packed ``(min_id << 32) | max_id``
    keys over ids interned in first-touch order, so the sample order,
    the draws and the error messages can be compared directly.
    """

    def __init__(self, config) -> None:
        self.config = config
        self.reservoir = RandomPairingModel(
            config.reservoir_capacity,
            random.Random(child_seed(config.seed, "reservoir")),
        )
        self.ids: Dict[object, int] = {}
        self.labels: List[object] = []
        self.graph: Optional[Dict[object, Dict[object, None]]] = (
            {} if config.track_graph else None
        )
        self.universe: Dict[object, None] = {}
        self.stats = Counter()

    def apply(self, kind, u, v) -> None:
        """Apply one raw ``(kind, u, v)`` event; raises as the clusterer
        does, after counting what the clusterer counts."""
        if kind is EventKind.ADD_VERTEX or kind is EventKind.DELETE_VERTEX:
            if v is not None:
                raise ValueError(f"{kind.value} event takes a single vertex")
            self.stats["events"] += 1
            if kind is EventKind.ADD_VERTEX:
                self._add_vertex(u)
            else:
                self._delete_vertex(u)
            return
        if v is None:
            raise ValueError(f"{kind.value} event requires two endpoints")
        u, v = canonical_edge(u, v)
        self.stats["events"] += 1
        if kind is EventKind.ADD_EDGE:
            self._add_edge(u, v)
        else:
            self._delete_edge(u, v)

    # -- events ----------------------------------------------------------
    def _add_edge(self, u, v) -> None:
        key = self._key(u, v)
        if self.graph is not None:
            if v in self.graph.get(u, ()):
                return self._malformed(f"duplicate ADD_EDGE ({u!r}, {v!r})")
            self.graph.setdefault(u, {})[v] = None
            self.graph.setdefault(v, {})[u] = None
        self.universe.setdefault(u)
        self.universe.setdefault(v)
        admit, victim = self.reservoir.offer(key)
        if not admit:
            return
        components = _Components(self.universe, self.edges())
        if not self.config.constraint.allows(components, u, v):
            self.stats["vetoes"] += 1
            return
        self.reservoir.commit(key, victim)
        self.stats["admissions"] += 1
        if victim is not None:
            self.stats["evictions"] += 1

    def _delete_edge(self, u, v) -> None:
        key = self._key(u, v)
        if self.graph is not None:
            if v not in self.graph.get(u, ()):
                return self._malformed(f"DELETE_EDGE of absent edge ({u!r}, {v!r})")
            del self.graph[u][v]
            del self.graph[v][u]
        if self.reservoir.delete(key):
            self.stats["sample_deletions"] += 1

    def _add_vertex(self, v) -> None:
        self._intern(v)
        if self.graph is not None:
            self.graph.setdefault(v, {})
        self.universe.setdefault(v)

    def _delete_vertex(self, v) -> None:
        if self.graph is None:
            raise UnsupportedOperationError("DELETE_VERTEX requires track_graph=True")
        if v not in self.graph:
            return self._malformed(f"DELETE_VERTEX of absent vertex {v!r}")
        for w in self.graph.pop(v):
            del self.graph[w][v]
            if self.reservoir.delete(self._key(v, w)):
                self.stats["sample_deletions"] += 1
        if all(v not in edge for edge in self.edges()):
            self.universe.pop(v, None)

    def _malformed(self, message: str) -> None:
        if self.config.strict:
            raise StreamError(message)

    # -- ids -------------------------------------------------------------
    def _intern(self, label) -> int:
        if label not in self.ids:
            self.ids[label] = len(self.labels)
            self.labels.append(label)
        return self.ids[label]

    def _key(self, u, v) -> int:
        a, b = sorted((self._intern(u), self._intern(v)))
        return (a << 32) | b

    # -- reads -----------------------------------------------------------
    def edges(self) -> List[tuple]:
        """The sample as label-canonical edges, in slot order."""
        labels = self.labels
        return [
            canonical_edge(labels[key >> 32], labels[key & 0xFFFFFFFF])
            for key in self.reservoir.slots
        ]

    def partition(self) -> Partition:
        root = _Components(self.universe, self.edges()).root
        groups: Dict[object, list] = {}
        for vertex, r in root.items():
            groups.setdefault(r, []).append(vertex)
        return Partition.from_clusters(groups.values())


#: The counters the model keeps, compared with the clusterer's.
MODEL_STATS = ("events", "admissions", "vetoes", "evictions", "sample_deletions")


def assert_matches(clusterer, model: ClustererModel) -> None:
    """The clusterer's sample (in slot order), reservoir RNG state,
    counters and clusters equal the model's."""
    assert clusterer.reservoir_edges() == model.edges()
    reservoir = clusterer.get_state()["reservoir"]
    assert reservoir["rng_state"] == model.reservoir.rng.getstate()
    assert (reservoir["population"], reservoir["c_bad"], reservoir["c_good"]) == (
        model.reservoir.population,
        model.reservoir.c_bad,
        model.reservoir.c_good,
    )
    stats = clusterer.stats.as_dict()
    assert {name: stats[name] for name in MODEL_STATS} == {
        name: model.stats[name] for name in MODEL_STATS
    }
    assert clusterer.snapshot() == model.partition()
