"""The streaming graph clusterer — the paper's primary contribution.

:class:`StreamingGraphClusterer` consumes a stream of vertex/edge
additions and deletions and maintains, at all times, a clustering of the
current graph defined as the **connected components of a reservoir
sample of the edges**:

1. A :class:`~repro.sampling.random_pairing.RandomPairingReservoir`
   keeps a bounded uniform sample of the live edge set under additions
   and deletions.
2. Admissions that would merge components may be vetoed by a
   :class:`~repro.core.constraints.ConstraintPolicy` (bounding cluster
   sizes or the number of clusters — the paper's "desired properties").
3. :class:`~repro.connectivity.labels.ComponentLabels` keeps the
   components of the sampled sub-graph current as sampled edges come
   and go: a component id per sampled vertex, relabelling the smaller
   side on a merge and running an exact bidirectional split search on
   every sampled deletion. It is the clusterer's only connectivity
   state; every query reads it, and only :meth:`snapshot` builds a
   :class:`~repro.quality.partition.Partition`.

Every update is processed online and incrementally; no pass over the
full graph is ever required.

Dense-integer hot path
----------------------
Vertex labels are interned once at the ingestion boundary
(:class:`~repro.graph.intern.VertexInterner`): every structure past that
point — reservoir, adjacency, component labels — works on dense
``u32`` ids, and an edge is a single packed ``(min_id << 32) | max_id``
int. Labels reappear only at the query/persistence boundary
(:meth:`snapshot`, :meth:`cluster_members`, :meth:`get_state`). Interning
order is first-appearance order of the canonicalized event stream, so
all ingestion paths (per-event, batched, either kernel, inline or in a
pipeline worker) build the identical table and make RNG-identical
sampling decisions.

Ingestion
---------
Every event goes through the batch kernel (:mod:`repro.core.batchkernel`):
:meth:`StreamingGraphClusterer.apply_many` hands it a batch, and
:meth:`StreamingGraphClusterer.apply` a one-event batch. The kernel
interns, registers and packs a batch once and then samples it, asking
the constraint policy inside the sampler's loop. Under the scalar kernel
the sampling makes the same draws whatever the batch boundaries and
updates the component labels as it goes, so the end-to-end result —
partition, statistics, reservoir content, and RNG state — is identical
for any split into batches (property-tested in
``tests/test_apply_many_property.py`` against a per-event model). See
``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from sys import getsizeof
from typing import Dict, FrozenSet, Iterable, List, Optional, Union

import numpy as np

from repro.connectivity.labels import ComponentLabels
from repro.core.batchkernel import BatchKernel
from repro.obs import metrics as _obs
from repro.core.config import ClustererConfig, normalize_config
from repro.core.constraints import Unconstrained
from repro.errors import StreamError, UnsupportedOperationError
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.intern import VertexInterner
from repro.quality.partition import Partition, int64_column
from repro.sampling.random_pairing import PackedEdgeReservoir
from repro.streams.events import (
    Edge,
    EdgeEvent,
    EventColumns,
    RawEvent,
    Vertex,
    canonical_edge,
)
from repro.util.rng import child_seed

__all__ = ["STATE_FORMAT", "ClustererStats", "StreamingGraphClusterer"]

AnyEvent = Union[EdgeEvent, RawEvent]

#: Checkpoint format emitted by :meth:`StreamingGraphClusterer.get_state`.
#: Format 2 added the intern table and packed reservoir keys; format-1
#: states (no ``"format"`` key) still load via a compatibility path.
#: Format 3 (emitted only by ``kernel="numpy"`` configurations, so the
#: scalar default stays byte-identical) additionally carries the numpy
#: kernel's PCG64 bitstream state inside the reservoir state; the loader
#: accepts all three.
STATE_FORMAT = 2
STATE_FORMAT_NUMPY = 3

_MASK32 = 0xFFFFFFFF


@dataclass
class ClustererStats:
    """Counters describing the work a clusterer has performed."""

    events: int = 0
    edge_adds: int = 0
    edge_deletes: int = 0
    vertex_adds: int = 0
    vertex_deletes: int = 0
    admissions: int = 0
    vetoes: int = 0
    evictions: int = 0
    sample_deletions: int = 0
    component_merges: int = 0
    component_splits: int = 0
    malformed_events: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (for logging / result records)."""
        return dict(self.__dict__)


class StreamingGraphClusterer:
    """Online, incremental clustering by graph reservoir sampling.

    >>> from repro.core.config import ClustererConfig
    >>> from repro.streams.events import add_edge
    >>> clusterer = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=100))
    >>> for u, v in [(1, 2), (2, 3), (7, 8)]:
    ...     clusterer.apply(add_edge(u, v))
    >>> clusterer.same_cluster(1, 3)
    True
    >>> clusterer.same_cluster(1, 7)
    False
    """

    def __init__(self, config: ClustererConfig) -> None:
        self.config = config = normalize_config(config)
        #: Work counters (see the statistics contract in
        #: docs/performance.md).
        self.stats = ClustererStats()
        # Label ↔ dense-id table shared by every structure below. Edge
        # keys pack the two endpoint ids into one int, canonical by *id*
        # order internally; label-canonical orientation is recomputed
        # only when edges are externalized.
        self._intern = VertexInterner()
        self._reservoir: PackedEdgeReservoir = self._make_reservoir(
            child_seed(config.seed, "reservoir")
        )
        # Sampled adjacency, component labels and the vertex universe,
        # all by id. Only the numpy kernel lets the labels fall behind
        # the sample (a restore rebuilds them at once); readers go
        # through `_settled()`.
        self._components = ComponentLabels()
        self._graph: Optional[AdjacencyGraph] = (
            AdjacencyGraph(interner=self._intern) if config.track_graph else None
        )
        # Cached cluster extraction, invalidated by structural changes.
        self._partition_cache: Optional[Partition] = None
        # Every interned label as int64, indexed by id, while all of them
        # are int64 ints; None for good once one is not (the table only
        # grows). snapshot() fills in the labels interned since the first
        # _labels_checked, doubling the column when it is full.
        self._label_column: Optional[np.ndarray] = np.empty(0, np.int64)
        self._labels_checked = 0
        #: Number of times a partition was actually (re)built by
        #: :meth:`snapshot` — a probe counter for cache-effectiveness
        #: tests and benchmarks; not part of the persisted state.
        self.partition_builds = 0
        #: Probe counters for the batch kernel (not persisted): sampling
        #: runs executed, events it applied, and events that left its
        #: loop for the clusterer's vertex deletion.
        self.kernel_batches = 0
        self.kernel_events = 0
        self.kernel_fallback_events = 0
        # Bumped whenever a vertex leaves the universe, invalidating the
        # batch kernel's registration bitmap, which catches up with new
        # registrations by itself (batchkernel._registration_bitmap).
        self._vertex_epoch = 0
        #: Monotone counter of structural invalidations (sampled edge
        #: set or vertex universe changed since the last extraction
        #: cache build). Ensemble drivers compare version vectors to
        #: skip merged-partition rebuilds when no shard moved; like the
        #: probe counters it is not part of the persisted state.
        self.structure_version = 0
        # Last counter values published to the metrics registry, so
        # sync_metrics() emits exact deltas (see repro.obs).
        self._metrics_last: Dict[str, int] = {}
        # The registry's instrument for each published name, fetched on
        # first use and again after a reset (the registry's generation).
        self._metric_handles: Dict[str, _obs.Metric] = {}
        self._metrics_generation = -1
        # Only the unconstrained numpy kernel lets the labels lag the
        # sample: the batch kernel logs the changes and replays them
        # through ``_kernel.sync()``, which every reader calls. A policy's
        # vetoes need current components, so under one it links at once.
        self._lagging = config.kernel == "numpy" and type(config.constraint) is Unconstrained
        #: Runs every event: ``apply`` and ``apply_many`` alike.
        self._kernel = BatchKernel(self)

    def _make_reservoir(self, seed: int) -> PackedEdgeReservoir:
        """Reservoir matching the configured kernel (scalar MT / numpy PCG64)."""
        if self.config.kernel == "numpy":
            from repro.sampling.vectorized import NumpyPackedEdgeReservoir

            return NumpyPackedEdgeReservoir(
                self.config.reservoir_capacity, seed=seed
            )
        return PackedEdgeReservoir(self.config.reservoir_capacity, seed=seed)

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def apply(self, event: EdgeEvent) -> None:
        """Process one stream event: a one-event batch through the batch
        kernel (without :meth:`apply_many`'s metrics sync)."""
        self._kernel._apply_small((event,))

    def apply_many(self, events: Iterable[AnyEvent]) -> "StreamingGraphClusterer":
        """Process a batch of events through the batch kernel.

        Accepts :class:`EdgeEvent` objects and plain ``(kind, u, v)``
        tuples (``v=None`` for vertex events) interchangeably, or
        :class:`EventColumns`; the tuple and column forms skip per-event
        object construction entirely. Under the scalar kernel the final
        state — reservoir content and RNG state, statistics, tracked
        graph, and clustering — is identical for any split of the stream
        into batches, one event a batch (:meth:`apply`) included.
        Returns self for chaining.
        """
        try:
            if type(events) is EventColumns:
                self._kernel.apply_columns(events.kinds, events.us, events.vs)
            else:
                self._kernel.apply_stream(events)
        finally:
            if _obs._ENABLED:
                self.sync_metrics()
        return self

    def process(
        self, events: Iterable[AnyEvent], batch_size: Optional[int] = None
    ) -> "StreamingGraphClusterer":
        """Process a whole stream; returns self for chaining.

        With ``batch_size`` (``None``/``0`` disables batching) the
        stream is consumed in chunks through :meth:`apply_many`; larger
        chunks amortize more per-event overhead.
        """
        if not batch_size:
            for event in events:
                if type(event) is tuple:
                    event = EdgeEvent(event[0], event[1], event[2])
                self.apply(event)
            if _obs._ENABLED:
                self.sync_metrics()
            return self
        iterator = iter(events)
        while True:
            chunk = list(islice(iterator, batch_size))
            if not chunk:
                return self
            self.apply_many(chunk)

    def _settled(self) -> ComponentLabels:
        """The component labels, first brought up to date with the
        sample by the numpy kernel (:meth:`BatchKernel.sync`)."""
        if self._lagging:
            self._kernel.sync()
        return self._components

    def _invalidate(self) -> None:
        self._partition_cache = None
        self.structure_version += 1

    # ------------------------------------------------------------------
    # Vertex deletion
    # ------------------------------------------------------------------
    def _on_delete_vertex(self, v: Vertex) -> None:
        """Delete ``v`` and every tracked edge at it. The batch kernel runs
        this at each ``DELETE_VERTEX``, once the labels are current."""
        self.stats.vertex_deletes += 1
        if self._graph is None:
            raise UnsupportedOperationError(
                "DELETE_VERTEX requires track_graph=True: a pure edge "
                "reservoir cannot enumerate the incident edges to remove"
            )
        # A vertex deletion never interns: every shard receives a
        # broadcast DELETE_VERTEX, and one for a vertex this clusterer
        # never saw must not grow its intern table.
        uid = self._intern.id_of(v)
        if uid is None or not self._graph.has_vertex_id(uid):
            self._malformed(f"DELETE_VERTEX of absent vertex {v!r}")
            return
        self._invalidate()
        components = self._components
        for key in self._graph.remove_vertex_id(uid):
            if self._reservoir.delete(key):
                self.stats.sample_deletions += 1
                if components.cut(key >> 32, key & _MASK32):
                    self.stats.component_splits += 1
        if components.remove_vertex_if_isolated(uid):
            self._vertex_epoch += 1

    def _malformed(self, message: str) -> None:
        if self.config.strict:
            raise StreamError(message)
        self.stats.malformed_events += 1

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _extern_key(self, key: int) -> Edge:
        """Packed id key → label-canonical edge tuple."""
        label_of = self._intern.label_of
        return canonical_edge(label_of(key >> 32), label_of(key & _MASK32))

    def get_state(self) -> dict:
        """Complete serializable state for checkpointing (format 2).

        The component labels are *not* serialized: they are an exact
        function of the sampled edges, so they are rebuilt from the
        reservoir on restore and answer every query identically.

        Everything label-facing is externalized: the intern table as a
        label list in id order, the reservoir sample as label-canonical
        edge tuples in slot order, the vertex universe as labels in
        registration order.
        """
        extern_key = self._extern_key
        reservoir_state = self._reservoir.get_state()
        reservoir_state["items"] = [
            extern_key(key) for key in reservoir_state["items"]
        ]
        label_of = self._intern.label_of
        return {
            "format": STATE_FORMAT
            if self.config.kernel == "scalar"
            else STATE_FORMAT_NUMPY,
            "config": self.config,
            "stats": self.stats.as_dict(),
            "intern": self._intern.labels(),
            "reservoir": reservoir_state,
            "conn_vertices": [label_of(vid) for vid in self._components.universe],
            "graph": self._graph.get_state() if self._graph is not None else None,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingGraphClusterer":
        """Reconstruct a clusterer from :meth:`get_state` output.

        The restored clusterer replays any stream tail to the *identical*
        partition, stats, and reservoir as an uninterrupted run: the
        intern table, reservoir RNG state and slot order, and the
        tracked graph are exact, and the component labels are rebuilt
        from the reservoir.

        Format-1 states (pre-interning; no ``"format"`` key) still load:
        the intern table is derived from the persisted label-space
        structures. The restored clusterer is functionally identical —
        ids are internal and unobservable — though its future
        checkpoints are emitted in format 2.
        """
        config: ClustererConfig = normalize_config(state["config"])
        if state.get("format", 1) >= 3 and config.kernel != "numpy":
            raise ValueError(
                "corrupt clusterer state: format-3 checkpoints are only "
                "written by the numpy kernel, but the embedded config "
                f"says kernel={config.kernel!r}"
            )
        clusterer = cls(config)
        # States written before the RESAMPLE policy was retired also
        # carry a "resamples" stat (always 0 under random pairing, the
        # only policy normalize_config lets through) and a
        # "rebuild_rng_state" key; both are ignored.
        stats = dict(state["stats"])
        stats.pop("resamples", None)
        clusterer.stats = ClustererStats(**stats)
        intern = clusterer._intern
        if state.get("format", 1) >= 2:
            for label in state["intern"]:
                intern.intern(label)
            if len(intern) != len(state["intern"]):
                raise ValueError("corrupt intern table: duplicate label")
        else:
            # Format 1 carried no table; rebuild one from every persisted
            # label-space structure. Order is arbitrary-but-deterministic
            # (ids are not observable), coverage is what matters.
            for label in state["conn_vertices"]:
                intern.intern(label)
            for u, v in state["reservoir"]["items"]:
                intern.intern(u)
                intern.intern(v)
            graph_state = state["graph"]
            if graph_state is not None:
                for label in graph_state["vertices"]:
                    intern.intern(label)
        id_of = intern.id_of
        reservoir_state = dict(state["reservoir"])
        packed_items: List[int] = []
        for u, v in reservoir_state["items"]:
            uid = id_of(u)
            vid = id_of(v)
            if uid is None or vid is None:
                raise ValueError(
                    f"corrupt clusterer state: sampled edge ({u!r}, {v!r}) "
                    f"is missing from the intern table"
                )
            packed_items.append(
                (uid << 32) | vid if uid < vid else (vid << 32) | uid
            )
        reservoir_state["items"] = packed_items
        if config.kernel == "numpy":
            from repro.sampling.vectorized import NumpyPackedEdgeReservoir

            clusterer._reservoir = NumpyPackedEdgeReservoir.from_state(
                reservoir_state, id_limit=len(intern)
            )
        else:
            clusterer._reservoir = PackedEdgeReservoir.from_state(
                reservoir_state, id_limit=len(intern)
            )
        # States written by older releases may also carry "conn_dirty"
        # (a retired backend's cache flag); it never affected the
        # clustering and is ignored.
        components = clusterer._components
        for label in state["conn_vertices"]:
            vid = id_of(label)
            if vid is None:
                raise ValueError(
                    f"corrupt clusterer state: connectivity vertex {label!r} "
                    f"is missing from the intern table"
                )
            components.add_vertex(vid)
        # Rebuild the labels from the restored reservoir in one pass.
        components.rebuild(
            (key >> 32, key & _MASK32) for key in clusterer._reservoir
        )
        clusterer._vertex_epoch += 1
        graph_state = state["graph"]
        clusterer._graph = (
            AdjacencyGraph.from_state(graph_state, interner=intern)
            if graph_state is not None
            else None
        )
        return clusterer

    # ------------------------------------------------------------------
    # Clustering queries
    # ------------------------------------------------------------------
    def cluster_id(self, v: Vertex) -> object:
        """Opaque id of ``v``'s cluster, valid until the next update.

        ``cluster_id(u) == cluster_id(v)`` exactly when
        ``same_cluster(u, v)``: a vertex with a sampled edge gets its
        component id (an int), every other label — singleton, deleted,
        never registered or never seen — ``frozenset({v})``.
        """
        uid = self._intern.id_of(v)
        cid = None if uid is None else self._settled().comp.get(uid)
        return frozenset({v}) if cid is None else cid

    def cluster_members(self, v: Vertex) -> FrozenSet[Vertex]:
        """All vertices clustered with ``v`` (including ``v``)."""
        uid = self._intern.id_of(v)
        if uid is None:
            return frozenset({v})
        label_of = self._intern.label_of
        return frozenset(
            label_of(member)
            for member in self._settled().component_members(uid)
        )

    def cluster_size(self, v: Vertex) -> int:
        """Size of ``v``'s cluster (1 for unseen vertices)."""
        uid = self._intern.id_of(v)
        if uid is None:
            return 1
        return self._settled().component_size(uid)

    def same_cluster(self, u: Vertex, v: Vertex) -> bool:
        """True if ``u`` and ``v`` are currently in the same cluster."""
        id_of = self._intern.id_of
        uid = id_of(u)
        vid = id_of(v)
        if uid is None or vid is None:
            # Never-seen labels are singletons.
            return u == v
        return self._settled().connected(uid, vid)

    @property
    def num_clusters(self) -> int:
        """Number of clusters (components of the sampled sub-graph)."""
        return self._settled().num_components

    @property
    def num_vertices(self) -> int:
        """Number of vertices the clusterer has seen and not deleted."""
        return len(self._components.universe)

    def snapshot(self) -> Partition:
        """The current clustering as an immutable :class:`Partition`.

        Cached until the next structural change (admission, sample
        deletion, or vertex-set change), so repeated quality probes
        between updates cost a dict lookup, not a re-extraction.
        """
        partition = self._partition_cache
        if partition is None:
            components = self._settled()
            universe = components.universe
            comp = components.comp
            vids = np.fromiter(universe, np.int64, len(universe))
            # Cluster numbers in slots by id, only the universe's written:
            # the component id, or ``~vid`` for a singleton, a negative
            # label no component id can take.
            numbers = np.empty(len(self._intern), np.int64)
            numbers[vids] = ~vids
            numbers[np.fromiter(comp, np.int64, len(comp))] = np.fromiter(
                comp.values(), np.int64, len(comp)
            )
            labels = self._int_label_column()
            if labels is None:
                vertices = list(map(self._intern._labels.__getitem__, universe))
            else:
                vertices = labels[vids]
            partition = Partition(columns=(vertices, numbers[vids]))
            self._partition_cache = partition
            self.partition_builds += 1
            if _obs._ENABLED:
                self.sync_metrics()
        return partition

    def _int_label_column(self) -> Optional[np.ndarray]:
        """Every interned label as int64, indexed by id, or None if one is
        not an int within int64. Only the labels interned since the last
        call are checked and converted, and the column grows by doubling,
        so its copies add up to O(labels)."""
        column = self._label_column
        labels = self._intern._labels
        checked = self._labels_checked
        if column is not None and checked < len(labels):
            fresh = int64_column(labels[checked:])
            if fresh is None:
                column = None
            else:
                if len(column) < len(labels):
                    grown = np.empty(max(2 * len(column), len(labels)), np.int64)
                    grown[:checked] = column[:checked]
                    column = grown
                column[checked:len(labels)] = fresh
            self._label_column = column
            self._labels_checked = len(labels)
        return column

    def vertices(self) -> Iterable[Vertex]:
        """Iterate over all vertices the clusterer currently knows."""
        label_of = self._intern.label_of
        return [label_of(vid) for vid in self._components.universe]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    _METRIC_STAT_FIELDS = (
        "events",
        "edge_adds",
        "edge_deletes",
        "vertex_adds",
        "vertex_deletes",
        "admissions",
        "vetoes",
        "evictions",
        "sample_deletions",
        "component_merges",
        "component_splits",
        "malformed_events",
    )
    _METRIC_PROBE_FIELDS = (
        "partition_builds",
        "kernel_batches",
        "kernel_events",
        "kernel_fallback_events",
    )

    def sync_metrics(self) -> None:
        """Publish this clusterer's counters and gauges to the default
        metrics registry (``clusterer.*`` — see docs/observability.md).

        Counter deltas since the previous sync are added, so several
        clusterers (e.g. shards) aggregate into the same series; gauges
        (reservoir occupancy/fill, vertex count) are overwritten. Called
        automatically at batch and stream boundaries when
        :mod:`repro.obs` is enabled; per-event hot paths never pay more
        than the single enabling branch.
        """
        registry = _obs.default_registry()
        if self._metrics_generation != registry.generation:
            self._metrics_generation = registry.generation
            self._metric_handles = {}
        handles = self._metric_handles
        last = self._metrics_last
        stats = self.stats
        for source, names in (
            (stats, self._METRIC_STAT_FIELDS),
            (self, self._METRIC_PROBE_FIELDS),
        ):
            for name in names:
                value = getattr(source, name)
                prev = last.get(name, 0)
                if value > prev:
                    counter = handles.get(name)
                    if counter is None:
                        counter = handles[name] = registry.counter("clusterer." + name)
                    counter.inc(value - prev)
                    last[name] = value
        size = len(self._reservoir)
        for name, value in (
            ("reservoir_size", size),
            ("reservoir_fill", size / self.config.reservoir_capacity),
            ("num_vertices", self.num_vertices),
        ):
            gauge = handles.get(name)
            if gauge is None:
                gauge = handles[name] = registry.gauge("clusterer." + name)
            gauge.set(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def interner(self) -> VertexInterner:
        """The label ↔ id table shared by every internal structure."""
        return self._intern

    @property
    def reservoir_size(self) -> int:
        """Number of edges currently sampled."""
        return len(self._reservoir)

    def sample_structure_bytes(self) -> int:
        """Resident bytes of the sample structures (``sys.getsizeof``).

        Counts the reservoir slot storage (an ``array('Q')`` of packed
        edge keys), the item→slot index with its key objects, the
        sample adjacency, and the component labels over it — the
        per-sampled-edge state the dense-id refactor shrank. An
        accounting estimate for E10-style comparisons, not an
        allocator-exact figure.
        """
        components = self._settled()
        reservoir = self._reservoir
        size = getsizeof(reservoir._slots) + getsizeof(reservoir._slot_of)
        for key in reservoir._slot_of:
            size += getsizeof(key)
        adj = components.adj
        size += getsizeof(adj)
        for neighbours in adj.values():
            size += getsizeof(neighbours)
        return size + getsizeof(components.comp) + getsizeof(components.size)

    def reservoir_edges(self) -> List[Edge]:
        """The sampled edges as label-canonical tuples (copy)."""
        extern_key = self._extern_key
        return [extern_key(key) for key in self._reservoir]

    @property
    def graph(self) -> Optional[AdjacencyGraph]:
        """The tracked full graph, or None in the lean memory mode."""
        return self._graph

    def __repr__(self) -> str:
        return (
            f"StreamingGraphClusterer(vertices={self.num_vertices}, "
            f"clusters={self.num_clusters}, reservoir={self.reservoir_size}/"
            f"{self.config.reservoir_capacity})"
        )
