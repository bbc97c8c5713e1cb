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

Batched ingestion
-----------------
:meth:`StreamingGraphClusterer.apply_many` is the high-throughput entry
point. For the unconstrained configuration it amortizes the per-event
Python overhead across a whole batch: events are consumed
as plain ``(kind, u, v)`` tuples or :class:`EdgeEvent` objects, the
reservoir step is inlined, stats are accumulated in local counters, and
the component labels are updated in place, so the end-to-end result —
partition, statistics, reservoir content, and RNG state — is identical
to the per-event path (property-tested in
``tests/test_apply_many_property.py``). See ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from sys import getsizeof
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.connectivity.labels import ComponentLabels
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
    EventKind,
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
        # The vectorized batch kernel (bound below for kernel="numpy")
        # logs the sample changes it did not apply to the labels and
        # replays them through its ``sync`` hook, called by ``apply`` and
        # every reader; scalar configurations never pay more than this
        # None check.
        self._kernel = None
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
        #: Probe counters for the numpy batch kernel (not persisted):
        #: vectorized runs executed, events the kernel applied (its runs
        #: plus the deletions and vertex additions it applies in place),
        #: and events that fell back to the per-event path while the
        #: kernel was configured (vertex deletions).
        self.kernel_batches = 0
        self.kernel_events = 0
        self.kernel_fallback_events = 0
        # Bumped whenever the vertex universe changes outside the batch
        # kernel, invalidating its registration bitmap (see
        # batchkernel._registration_bitmap).
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
        if config.kernel == "numpy":
            from repro.core.batchkernel import NumpyBatchKernel

            self._kernel = NumpyBatchKernel(self)

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
        """Process one stream event."""
        if self._kernel is not None:
            self._kernel.sync()
        self.stats.events += 1
        kind = event.kind
        if kind is EventKind.ADD_EDGE:
            self._on_add_edge(event.u, event.v)
        elif kind is EventKind.DELETE_EDGE:
            self._on_delete_edge(event.u, event.v)
        elif kind is EventKind.ADD_VERTEX:
            self._on_add_vertex(event.u)
        elif kind is EventKind.DELETE_VERTEX:
            self._on_delete_vertex(event.u)
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unknown event kind {kind!r}")

    def apply_many(self, events: Iterable[AnyEvent]) -> "StreamingGraphClusterer":
        """Process a stream of events through the batched fast path.

        Accepts :class:`EdgeEvent` objects and plain ``(kind, u, v)``
        tuples (``v=None`` for vertex events) interchangeably; the tuple
        form skips per-event object construction entirely. The final
        state — reservoir content and RNG state, statistics, tracked
        graph, and clustering — is identical to calling :meth:`apply`
        per event, for any split of the stream into batches.

        The fast path engages for the unconstrained configuration;
        constrained configurations fall back to per-event processing
        transparently. Vertex deletions act as batch barriers (they run
        on the per-event path), so streams where they are rare still
        batch well. Returns self for chaining.
        """
        columns = type(events) is EventColumns
        if type(self.config.constraint) is not Unconstrained:
            if columns:
                events = events.to_events()
            for event in events:
                if type(event) is tuple:
                    event = EdgeEvent(event[0], event[1], event[2])
                self.apply(event)
            if _obs._ENABLED:
                self.sync_metrics()
            return self
        kernel = self._kernel
        if kernel is not None:
            if columns:
                kernel.apply_columns(events.kinds, events.us, events.vs)
            else:
                kernel.apply_stream(events)
            if _obs._ENABLED:
                self.sync_metrics()
            return self
        if columns:
            events = events.to_events()
        iterator = iter(events)
        while True:
            barrier = self._apply_edge_batch(iterator)
            if barrier is None:
                return self
            self.apply(barrier)

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

    # ------------------------------------------------------------------
    # Batched fast path
    # ------------------------------------------------------------------
    def _apply_edge_batch(self, iterator: Iterator[AnyEvent]) -> Optional[EdgeEvent]:
        """Consume edge/vertex-add events until exhaustion or a barrier.

        Returns the barrier event (vertex deletion) still to be applied,
        or None when the iterator ran dry. The stat counters the loop
        accumulates locally and the cache invalidation are settled in
        the ``finally`` block, so an exception (strict-mode stream
        error, malformed input) leaves the clusterer exactly as the
        per-event path would.
        """
        reservoir = self._reservoir
        reservoir_delete = reservoir.delete
        # The admission step is inlined below (the loop manipulates the
        # reservoir's slot array and counters directly). The RNG draws
        # replicate random.Random.randrange's accept-reject loop over
        # getrandbits bit-for-bit, so the sampler consumes entropy — and
        # decides — exactly as insert_fast/propose_insert would
        # (property-tested against the per-event path).
        slots = reservoir._slots
        slot_of = reservoir._slot_of
        getrandbits = reservoir._rng.getrandbits
        capacity = reservoir._capacity
        graph = self._graph
        gadj = None if graph is None else graph._adj
        g_vertices = g_edges = 0  # deferred graph counter deltas
        intern = self._intern
        iget = intern._ids.get
        iadd = intern.intern
        label_of = intern.label_of
        # Component labels are updated in place, exactly as the
        # per-event path updates them, so merge/split counts are exact.
        components = self._components
        universe = components.universe
        link = components.link
        cut = components.cut
        strict = self.config.strict
        kind_add = EventKind.ADD_EDGE
        kind_del = EventKind.DELETE_EDGE
        kind_addv = EventKind.ADD_VERTEX
        n_events = n_adds = n_deletes = n_vadds = 0
        n_admitted = n_evicted = n_sample_del = n_malformed = 0
        n_merges = n_splits = 0
        structural = False
        barrier: Optional[EdgeEvent] = None
        try:
            for event in iterator:
                if type(event) is tuple:
                    kind, u, v = event
                else:
                    kind, u, v = event.kind, event.u, event.v
                if kind is kind_add:
                    if u == v:
                        raise ValueError(
                            f"self-loop edges are not allowed: ({u!r}, {v!r})"
                        )
                    try:
                        if v < u:
                            u, v = v, u
                    except TypeError:
                        if repr(v) < repr(u):
                            u, v = v, u
                    # Intern in label-canonical order *before* any
                    # validity check: the per-event path assigns ids to
                    # a malformed edge's endpoints too.
                    uid = iget(u)
                    if uid is None:
                        uid = iadd(u)
                    vid = iget(v)
                    if vid is None:
                        vid = iadd(v)
                    n_events += 1
                    n_adds += 1
                    if gadj is not None:
                        # Inline graph.add_edge_ids; the _id_count /
                        # _num_edges deltas are settled in finally.
                        n = len(gadj)
                        if uid >= n or vid >= n:
                            gadj.extend(
                                [None] * ((uid if uid > vid else vid) + 1 - n)
                            )
                        nu = gadj[uid]
                        if nu is None:
                            gadj[uid] = {vid: None}
                            g_vertices += 1
                        elif vid in nu:
                            if strict:
                                raise StreamError(
                                    f"duplicate ADD_EDGE "
                                    f"({label_of(uid)!r}, {label_of(vid)!r})"
                                )
                            n_malformed += 1
                            continue
                        else:
                            nu[vid] = None
                        nv = gadj[vid]
                        if nv is None:
                            gadj[vid] = {uid: None}
                            g_vertices += 1
                        else:
                            nv[uid] = None
                        g_edges += 1
                    if uid not in universe:
                        universe[uid] = None
                        structural = True
                    if vid not in universe:
                        universe[vid] = None
                        structural = True
                    if uid < vid:
                        ku = uid
                        kv = vid
                    else:
                        ku = vid
                        kv = uid
                    key = (ku << 32) | kv
                    # --- inline insert_fast(key) ---
                    population = reservoir._population + 1
                    reservoir._population = population
                    c_bad = reservoir._c_bad
                    pending = c_bad + reservoir._c_good
                    if pending:
                        bits = pending.bit_length()
                        r = getrandbits(bits)
                        while r >= pending:
                            r = getrandbits(bits)
                        if r < c_bad:
                            reservoir._c_bad = c_bad - 1
                            evicted = None
                        else:
                            reservoir._c_good -= 1
                            continue
                    elif len(slots) < capacity:
                        evicted = None
                    else:
                        bits = population.bit_length()
                        r = getrandbits(bits)
                        while r >= population:
                            r = getrandbits(bits)
                        if r >= capacity:
                            continue
                        size = len(slots)
                        bits = size.bit_length()
                        r = getrandbits(bits)
                        while r >= size:
                            r = getrandbits(bits)
                        evicted = slots[r]
                        pos = slot_of.pop(evicted)
                        last = slots.pop()
                        if pos < len(slots):
                            slots[pos] = last
                            slot_of[last] = pos
                    if key in slot_of:
                        raise ValueError(f"duplicate sample item {key!r}")
                    slot_of[key] = len(slots)
                    slots.append(key)
                    # --- end inline insert ---
                    n_admitted += 1
                    structural = True
                    if evicted is not None:
                        n_evicted += 1
                        if cut(evicted >> 32, evicted & _MASK32):
                            n_splits += 1
                    if link(ku, kv):
                        n_merges += 1
                elif kind is kind_del:
                    if u == v:
                        raise ValueError(
                            f"self-loop edges are not allowed: ({u!r}, {v!r})"
                        )
                    try:
                        if v < u:
                            u, v = v, u
                    except TypeError:
                        if repr(v) < repr(u):
                            u, v = v, u
                    uid = iget(u)
                    if uid is None:
                        uid = iadd(u)
                    vid = iget(v)
                    if vid is None:
                        vid = iadd(v)
                    n_events += 1
                    n_deletes += 1
                    if graph is not None and not graph.remove_edge_ids(uid, vid):
                        if strict:
                            raise StreamError(
                                f"DELETE_EDGE of absent edge "
                                f"({label_of(uid)!r}, {label_of(vid)!r})"
                            )
                        n_malformed += 1
                        continue
                    if uid < vid:
                        ku = uid
                        kv = vid
                    else:
                        ku = vid
                        kv = uid
                    if reservoir_delete((ku << 32) | kv):
                        n_sample_del += 1
                        structural = True
                        if cut(ku, kv):
                            n_splits += 1
                elif kind is kind_addv:
                    if v is not None:
                        raise ValueError(f"{kind.value} event takes a single vertex")
                    n_events += 1
                    n_vadds += 1
                    uid = iget(u)
                    if uid is None:
                        uid = iadd(u)
                    if graph is not None:
                        graph.add_vertex_id(uid)
                    if uid not in universe:
                        universe[uid] = None
                        structural = True
                else:
                    # DELETE_VERTEX (or an unknown kind, which apply()
                    # rejects): a barrier for the per-event path.
                    if type(event) is tuple:
                        event = EdgeEvent(kind, u, v)
                    barrier = event
                    break
        finally:
            if graph is not None:
                graph._id_count += g_vertices
                graph._num_edges += g_edges
            stats = self.stats
            stats.events += n_events
            stats.edge_adds += n_adds
            stats.edge_deletes += n_deletes
            stats.vertex_adds += n_vadds
            stats.admissions += n_admitted
            stats.evictions += n_evicted
            stats.sample_deletions += n_sample_del
            stats.malformed_events += n_malformed
            stats.component_merges += n_merges
            stats.component_splits += n_splits
            if structural:
                self._invalidate()
            if _obs._ENABLED:
                self.sync_metrics()
        return barrier

    def _settled(self) -> ComponentLabels:
        """The component labels, first brought up to date with the
        sample by the numpy kernel (:meth:`NumpyBatchKernel.sync`)."""
        if self._kernel is not None:
            self._kernel.sync()
        return self._components

    def _invalidate(self) -> None:
        self._partition_cache = None
        self.structure_version += 1

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_add_edge(self, u: Vertex, v: Vertex) -> None:
        # u, v arrive in label-canonical order (EdgeEvent canonicalizes);
        # interning u-then-v here matches the batched and pipeline paths.
        self.stats.edge_adds += 1
        intern = self._intern
        uid = intern.intern(u)
        vid = intern.intern(v)
        if self._graph is not None:
            if not self._graph.add_edge_ids(uid, vid):
                self._malformed(f"duplicate ADD_EDGE ({u!r}, {v!r})")
                return
        components = self._components
        fresh_u = components.add_vertex(uid)
        fresh_v = components.add_vertex(vid)
        if fresh_u or fresh_v:
            self._vertex_epoch += 1
            self._invalidate()
        key = (uid << 32) | vid if uid < vid else (vid << 32) | uid
        proposal = self._reservoir.propose_insert(key)
        if not proposal.admit:
            return
        if not self.config.constraint.allows(components, uid, vid):
            self._reservoir.abort(proposal)
            self.stats.vetoes += 1
            return
        self._reservoir.commit(proposal)
        self._invalidate()
        self.stats.admissions += 1
        evicted = proposal.evicted
        if evicted is not None:
            self.stats.evictions += 1
            if components.cut(evicted >> 32, evicted & _MASK32):
                self.stats.component_splits += 1
        if components.link(key >> 32, key & _MASK32):
            self.stats.component_merges += 1

    def _on_delete_edge(self, u: Vertex, v: Vertex) -> None:
        self.stats.edge_deletes += 1
        intern = self._intern
        uid = intern.intern(u)
        vid = intern.intern(v)
        if self._graph is not None:
            if not self._graph.remove_edge_ids(uid, vid):
                self._malformed(f"DELETE_EDGE of absent edge ({u!r}, {v!r})")
                return
        key = (uid << 32) | vid if uid < vid else (vid << 32) | uid
        if self._reservoir.delete(key):
            self.stats.sample_deletions += 1
            self._invalidate()
            if self._components.cut(key >> 32, key & _MASK32):
                self.stats.component_splits += 1

    def _on_add_vertex(self, v: Vertex) -> None:
        self.stats.vertex_adds += 1
        uid = self._intern.intern(v)
        if self._graph is not None:
            self._graph.add_vertex_id(uid)
        if self._components.add_vertex(uid):
            self._vertex_epoch += 1
            self._invalidate()

    def _on_delete_vertex(self, v: Vertex) -> None:
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
        counter = registry.counter
        last = self._metrics_last
        stats = self.stats
        for name in self._METRIC_STAT_FIELDS:
            value = getattr(stats, name)
            prev = last.get(name, 0)
            if value > prev:
                counter("clusterer." + name).inc(value - prev)
                last[name] = value
        for name in self._METRIC_PROBE_FIELDS:
            value = getattr(self, name)
            prev = last.get(name, 0)
            if value > prev:
                counter("clusterer." + name).inc(value - prev)
                last[name] = value
        size = len(self._reservoir)
        registry.gauge("clusterer.reservoir_size").set(size)
        registry.gauge("clusterer.reservoir_fill").set(
            size / self.config.reservoir_capacity
        )
        registry.gauge("clusterer.num_vertices").set(self.num_vertices)

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
