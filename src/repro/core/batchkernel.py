"""Array-at-a-time batch kernel (``--kernel numpy``).

The scalar batch loop in :meth:`StreamingGraphClusterer._apply_edge_batch`
canonicalizes, interns, packs, draws every reservoir decision and
updates the component labels one event at a time in Python.
:class:`NumpyBatchKernel` replaces that per-event work with whole-array
phases. A batch of edge events is handled like this:

1. **Intern** — the batch's edge labels are interned once, in event
   order: canonicalized with ``np.minimum/maximum`` and deduplicated
   with ``np.unique``; the interner's dict is touched once per
   batch-unique label, in exactly the scalar path's first-touch order
   (lo-then-hi per event, event order), so both kernels build the
   identical label table for the same stream.
2. **Split by kind** — each maximal run of ``ADD_EDGE`` events goes
   through the phases below; each ``DELETE_EDGE`` between two runs is
   applied in place (step 6).
3. **Graph + duplicate filter** — the tracked adjacency is updated in a
   tight Python loop (dict-of-dict updates do not vectorize); duplicate
   adds are dropped (or raise under ``strict``) with the scalar path's
   exact error and partial-batch semantics.
4. **Register** — endpoints not yet in the vertex universe are found by
   one boolean gather against a registration bitmap and registered in
   first-touch order.
5. **Pack + sample** — ``(min_id << 32) | max_id`` keys feed
   :meth:`NumpyPackedEdgeReservoir.insert_many`, which draws the whole
   steady-state accept/evict run from a PCG64 generator in two
   vectorized calls. A run that admitted anything leaves the component
   labels dirty instead of updating them per admission; the next reader
   (a query, a per-event fallback, a checkpoint) rebuilds them from the
   reservoir slots in one pass.
6. **Delete in place** — a deletion does what the per-event path does
   (tracked-graph removal with the same strict/malformed handling,
   ``reservoir.delete``, which is random-pairing counter arithmetic with
   no random draw), except that a sampled edge leaving the sample marks
   the labels dirty instead of cutting them. No resync, no rebuild.

``ADD_VERTEX`` events register in place too. ``DELETE_VERTEX`` is the
only event that falls back to the per-event path
(``kernel_fallback_events``), because it needs current adjacency; the
fallback first rebuilds dirty labels (:meth:`NumpyBatchKernel.sync`).

Statistics
----------
The kernel keeps no merge/split estimate: ``component_merges`` and
``component_splits`` count only events applied on the per-event path
(vertex deletions here; every event of a constrained configuration).
Every other counter (events, admissions, evictions, sample deletions,
malformed, ...) is exact. An estimate folded in at read time would make
the counters, and the checkpoint bytes, depend on when they were read.

Error-path caveat: on a strict-mode :class:`StreamError` the kernel has
already interned labels from later events in the same batch (interning
is step 1). Ids are internal, and a batch aborted by a stream error is
corrupt input anyway; partitions and equivalence are unaffected. A
self-loop or an edge deletion without a second endpoint raises after the
events before it are applied, with nothing after it interned, exactly
like the per-event path.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StreamError

# Not called here any more. The served-stream benchmark's traced
# launcher (benchmarks/servebench/traced_serve.py) patches this module
# attribute at start-up, so the name stays until those spans move.
from repro.sampling.vectorized import edge_components  # noqa: F401
from repro.streams.events import EVENT_KINDS, EdgeEvent, EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.clusterer import StreamingGraphClusterer

__all__ = ["NumpyBatchKernel"]

_U32 = np.uint64(32)

_GET_KIND = itemgetter(0)
_GET_U = itemgetter(1)
_GET_V = itemgetter(2)

_ADD_EDGE = EventKind.ADD_EDGE
_DELETE_EDGE = EventKind.DELETE_EDGE
#: ``EVENT_KINDS`` code of DELETE_EDGE. ADD_EDGE is code 0, so in a kind
#: array of edge events only the nonzero codes are the deletions.
_DELETE_CODE = EVENT_KINDS.index(_DELETE_EDGE)

_EMPTY_IDS = np.empty(0, dtype=np.int64)


def _positions(kinds: list, kind: EventKind) -> List[int]:
    """Ascending positions of ``kind`` in ``kinds``."""
    return [i for i, k in enumerate(kinds) if k is kind]


class NumpyBatchKernel:
    """Vectorized edge-event executor bound to one clusterer.

    Everything it touches is the clusterer's own state — reservoir,
    interner, tracked graph, component labels — so per-event processing
    (vertex deletions, ``apply``) can interleave freely: :meth:`sync`
    rebuilds the component labels a kernel run left dirty before any
    scalar code reads them.
    """

    __slots__ = ("_c", "_registered", "_reg_epoch", "_label_map")

    #: Dense label→id cache ceiling: int labels in [0, 2**22) gather their
    #: ids straight out of a numpy array instead of the interner's dict
    #: (≤32 MiB of int64 at full size, grown geometrically on demand).
    _LABEL_MAP_LIMIT = 1 << 22

    def __init__(self, clusterer: "StreamingGraphClusterer") -> None:
        self._c = clusterer
        self._registered = np.zeros(256, dtype=bool)
        self._reg_epoch = -1  # force a rebuild on first use
        self._label_map = np.full(256, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Reconciliation with the per-event path
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Rebuild dirty component labels (cheap when they are current)."""
        self._c._settled()

    def settle_stats(self) -> None:
        """Does nothing: the kernel keeps no pending statistics.

        The served-stream benchmark's traced launcher
        (benchmarks/servebench/traced_serve.py) wraps this method by
        name at start-up, so it stays until that span is retargeted.
        """

    def _registration_bitmap(self) -> np.ndarray:
        """Bitmap of ids in the vertex universe, epoch-validated."""
        c = self._c
        size = max(256, len(c._intern) + 1024)
        if self._reg_epoch != c._vertex_epoch:
            self._reg_epoch = c._vertex_epoch
            self._registered = np.zeros(size, dtype=bool)
            universe = c._components.universe
            if universe:
                self._registered[
                    np.fromiter(universe, dtype=np.int64, count=len(universe))
                ] = True
        elif self._registered.size < len(c._intern):
            grown = np.zeros(size, dtype=bool)
            grown[: self._registered.size] = self._registered
            self._registered = grown
        return self._registered

    # ------------------------------------------------------------------
    # Stream entry points
    # ------------------------------------------------------------------
    def apply_stream(self, events: Iterable) -> None:
        """Apply a batch of raw ``(kind, u, v)`` tuples and/or
        :class:`EdgeEvent` objects."""
        if type(events) is not list:
            events = list(events)
        if not events:
            return
        kinds = None
        if type(events[0]) is tuple:
            # itemgetter gathers columns at C speed (cheaper than a
            # zip(*...) transpose). EdgeEvent objects are not
            # subscriptable, so a batch holding one takes the loop below.
            try:
                kinds = list(map(_GET_KIND, events))
            except TypeError:
                pass
            else:
                us = list(map(_GET_U, events))
                vs = list(map(_GET_V, events))
        if kinds is None:
            kinds, us, vs = [], [], []
            for event in events:
                if type(event) is tuple:
                    kind, u, v = event
                else:
                    kind, u, v = event.kind, event.u, event.v
                kinds.append(kind)
                us.append(u)
                vs.append(v)
        self._apply_kind_list(kinds, us, vs)

    def apply_columns(self, kinds, us, vs) -> None:
        """Column-form entry (``EventColumns``).

        ``kinds`` is None when every event is an ``ADD_EDGE``, a list of
        :class:`EventKind`, or an integer array of ``EVENT_KINDS`` codes
        (the wire decode's form, split by kind with numpy). Label
        columns are lists from the stream readers or int64 arrays off
        the wire decode; array columns skip the per-label type gate.
        """
        if kinds is None:
            self._apply_edges((), us, vs)
        elif type(kinds) is list:
            self._apply_kind_list(kinds, us, vs)
        elif not kinds.size:
            return
        elif int(kinds.min()) >= 0 and int(kinds.max()) <= _DELETE_CODE:
            self._apply_edges(np.flatnonzero(kinds).tolist(), us, vs)
        else:
            self._apply_kind_list(
                list(map(EVENT_KINDS.__getitem__, kinds.tolist())), us, vs
            )

    def apply_interned(self, events: Iterable[Tuple[EventKind, int, int]]) -> None:
        """Pre-interned ``(kind, uid, vid)`` edge tuples (pipeline workers),
        ids in label-canonical orientation."""
        if type(events) is not list:
            events = list(events)
        if not events:
            return
        kinds = list(map(_GET_KIND, events))
        dels = _positions(kinds, _DELETE_EDGE)
        if len(dels) + kinds.count(_ADD_EDGE) != len(kinds):
            raise ValueError("interned batches may contain only edge events")
        self._apply_segments(
            np.asarray(list(map(_GET_U, events)), dtype=np.int64),
            np.asarray(list(map(_GET_V, events)), dtype=np.int64),
            dels,
        )

    # ------------------------------------------------------------------
    # Splitting a batch
    # ------------------------------------------------------------------
    def _apply_kind_list(self, kinds: list, us, vs) -> None:
        """Apply columns whose kinds are a list of :class:`EventKind`:
        edge events in bulk, vertex events one at a time between them."""
        n = len(kinds)
        n_adds = kinds.count(_ADD_EDGE)
        if n_adds == n:
            self._apply_edges((), us, vs)
            return
        dels = _positions(kinds, _DELETE_EDGE)
        if n_adds + len(dels) == n:
            self._apply_edges(dels, us, vs)
            return
        if type(us) is not list:
            us = us.tolist()
        if type(vs) is not list:
            vs = vs.tolist()
        start = 0
        for i, kind in enumerate(kinds):
            if kind is _ADD_EDGE or kind is _DELETE_EDGE:
                continue
            if start < i:
                self._apply_edges(
                    _positions(kinds[start:i], _DELETE_EDGE), us[start:i], vs[start:i]
                )
            self._apply_vertex_event(kind, us[i], vs[i])
            start = i + 1
        if start < n:
            self._apply_edges(_positions(kinds[start:], _DELETE_EDGE), us[start:], vs[start:])

    def _apply_edges(self, dels: Sequence[int], us, vs) -> None:
        """Apply edge events in order; ``dels`` holds the ascending
        positions of the ``DELETE_EDGE`` events, the rest are adds."""
        lo, hi, error = self._intern_edges(us, vs, dels)
        self._apply_segments(lo, hi, dels)
        if error is not None:
            raise error

    def _apply_segments(self, lo: np.ndarray, hi: np.ndarray, dels: Sequence[int]) -> None:
        """Run each maximal add segment of interned id columns through
        :meth:`_run` and apply each deletion between them in place.
        Positions past the end of the columns (a truncated batch) are
        ignored."""
        n = int(lo.size)
        start = 0
        for d in dels:
            if d >= n:
                break
            if start < d:
                self._run(lo[start:d], hi[start:d])
            self._delete(int(lo[d]), int(hi[d]))
            start = d + 1
        if start < n:
            self._run(lo[start:], hi[start:])

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _intern_edges(
        self, us, vs, dels: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, Optional[BaseException]]:
        """Intern a batch's edge labels once, in event order.

        Returns label-canonical id columns for the events before the
        first malformed one, and the error that event raises (None for
        a clean batch). The int fast path requires every label to be
        exactly ``int`` (bools are excluded, like the routing layers,
        because ``True`` and ``1`` are distinct labels to a dict but not
        to an array); int64 array columns skip the check. Anything else
        interns per event with identical semantics.
        """
        if isinstance(us, np.ndarray):
            au = np.asarray(us, dtype=np.int64)
            av = np.asarray(vs, dtype=np.int64)
        elif set(map(type, us)) == {int} == set(map(type, vs)):
            try:
                au = np.asarray(us, dtype=np.int64)
                av = np.asarray(vs, dtype=np.int64)
            except OverflowError:
                return self._intern_edges_generic(us, vs, dels)
        else:
            return self._intern_edges_generic(us, vs, dels)
        error: Optional[BaseException] = None
        loops = au == av
        if loops.any():
            p = int(np.argmax(loops))
            error = ValueError(
                f"self-loop edges are not allowed: "
                f"({int(au[p])!r}, {int(av[p])!r})"
            )
            au = au[:p]
            av = av[:p]
        if not au.size:
            return _EMPTY_IDS, _EMPTY_IDS, error
        lo, hi = self._intern_int_pairs(au, av)
        return lo, hi, error

    def _intern_int_pairs(
        self, au: np.ndarray, av: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk label→id interning for int labels, first-touch ordered.

        Labels in ``[0, _LABEL_MAP_LIMIT)`` resolve through a dense numpy
        label→id cache — one gather for a fully warmed-up batch, a small
        first-touch-ordered intern loop for the stragglers. The cache is
        only ever *missing* an entry, never wrong: labels interned by the
        scalar path leave a ``-1`` that falls through to the interner's
        get-or-add. Out-of-range labels take the per-unique dict path.
        """
        intern = self._c._intern
        flat = np.empty(au.size * 2, dtype=np.int64)
        flat[0::2] = np.minimum(au, av)
        flat[1::2] = np.maximum(au, av)
        mn = int(flat.min())
        mx = int(flat.max())
        if 0 <= mn and mx < self._LABEL_MAP_LIMIT:
            lmap = self._label_map
            if lmap.size <= mx:
                size = lmap.size
                while size <= mx:
                    size *= 2
                grown = np.full(min(size, self._LABEL_MAP_LIMIT), -1, np.int64)
                grown[: lmap.size] = lmap
                self._label_map = lmap = grown
            ids_flat = lmap[flat]
            unknown = ids_flat < 0
            if unknown.any():
                # Assign new ids in the order the scalar loop would: by
                # the label's first appearance in the lo/hi-interleaved
                # stream (np.unique's return_index preserves that order
                # within the unknown subset).
                fresh, first_idx = np.unique(flat[unknown], return_index=True)
                order = np.argsort(first_idx, kind="stable")
                iadd = intern.intern
                for label in fresh[order].tolist():
                    lmap[label] = iadd(label)
                ids_flat[unknown] = lmap[flat[unknown]]
            return ids_flat[0::2], ids_flat[1::2]
        ids_map = intern._ids
        uniq, first_idx, inverse = np.unique(
            flat, return_index=True, return_inverse=True
        )
        uniq_ids = np.empty(uniq.size, dtype=np.int64)
        missing: list = []
        for pos, label in enumerate(uniq.tolist()):
            vid = ids_map.get(label)
            if vid is None:
                missing.append(pos)
            else:
                uniq_ids[pos] = vid
        if missing:
            # Same first-appearance ordering as above.
            iadd = intern.intern
            missing.sort(key=first_idx.__getitem__)
            labels = uniq.tolist()
            for pos in missing:
                uniq_ids[pos] = iadd(labels[pos])
        ids_flat = uniq_ids[inverse]
        return ids_flat[0::2], ids_flat[1::2]

    def _intern_edges_generic(
        self, us: list, vs: list, dels: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, Optional[BaseException]]:
        """Per-event interning for non-int / mixed / big labels."""
        intern = self._c._intern
        iget = intern._ids.get
        iadd = intern.intern
        deleted = set(dels)
        lo: List[int] = []
        hi: List[int] = []
        error: Optional[BaseException] = None
        for i, (u, v) in enumerate(zip(us, vs)):
            if v is None and i in deleted:
                error = ValueError(
                    f"{_DELETE_EDGE.value} event requires two endpoints"
                )
                break
            if u == v:
                error = ValueError(f"self-loop edges are not allowed: ({u!r}, {v!r})")
                break
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
            lo.append(uid)
            hi.append(vid)
        return np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64), error

    # ------------------------------------------------------------------
    # In-place deletions and vertex events
    # ------------------------------------------------------------------
    def _delete(self, uid: int, vid: int) -> None:
        """One ``DELETE_EDGE`` of interned ids, applied in place.

        The per-event path's steps and errors, except that a sampled
        edge leaving the sample marks the labels dirty instead of
        cutting them.
        """
        c = self._c
        stats = c.stats
        stats.events += 1
        stats.edge_deletes += 1
        c.kernel_events += 1
        graph = c._graph
        if graph is not None and not graph.remove_edge_ids(uid, vid):
            label_of = c._intern.label_of
            c._malformed(
                f"DELETE_EDGE of absent edge ({label_of(uid)!r}, {label_of(vid)!r})"
            )
            return
        if c._reservoir.delete((uid << 32) | vid if uid < vid else (vid << 32) | uid):
            stats.sample_deletions += 1
            c._components.dirty = True
            c._invalidate()

    def _apply_vertex_event(self, kind, u, v) -> None:
        """An ``ADD_VERTEX`` registers in place (it reads no labels);
        anything else (a ``DELETE_VERTEX``, which needs current
        adjacency) takes the per-event path."""
        c = self._c
        if kind is not EventKind.ADD_VERTEX:
            c.kernel_fallback_events += 1
            c.apply(EdgeEvent(kind, u, v))
            return
        if v is not None:
            raise ValueError(f"{kind.value} event takes a single vertex")
        c.stats.events += 1
        c.kernel_events += 1
        c._on_add_vertex(u)

    # ------------------------------------------------------------------
    # ADD_EDGE runs
    # ------------------------------------------------------------------
    def _run(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Execute one run of interned, label-canonical id pairs."""
        c = self._c
        n = int(lo.size)
        if n == 0:
            return
        stats = c.stats
        pending_error: Optional[BaseException] = None
        n_malformed = 0
        # --- tracked graph + duplicate filter -------------------------
        if c._graph is not None:
            lo, hi, n_events, n_malformed, pending_error = self._graph_pass(lo, hi)
        else:
            n_events = n
        stats.events += n_events
        stats.edge_adds += n_events
        stats.malformed_events += n_malformed
        admitted: List[int] = []
        evicted: List[int] = []
        structural = False
        try:
            if lo.size:
                # --- vertex registration ------------------------------
                flat = np.empty(lo.size * 2, dtype=np.int64)
                flat[0::2] = lo
                flat[1::2] = hi
                registered = self._registration_bitmap()
                known = registered[flat]
                if not known.all():
                    new_flat = flat[~known]
                    uniq, first_idx = np.unique(new_flat, return_index=True)
                    order = np.argsort(first_idx, kind="stable")
                    fresh_ids = uniq[order]
                    universe = c._components.universe
                    for vid in fresh_ids.tolist():
                        universe[vid] = None
                    registered[fresh_ids] = True
                    structural = True
                # --- pack + vectorized reservoir admission ------------
                keys = (
                    np.minimum(lo, hi).astype(np.uint64) << _U32
                ) | np.maximum(lo, hi).astype(np.uint64)
                c._reservoir.insert_many(keys, admitted=admitted, evicted=evicted)
        finally:
            if admitted:
                stats.admissions += len(admitted)
                structural = True
                c._components.dirty = True
            if evicted:
                stats.evictions += len(evicted)
            if structural:
                c._invalidate()
            c.kernel_batches += 1
            c.kernel_events += n_events
        if pending_error is not None:
            raise pending_error

    def _graph_pass(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int, int, Optional[BaseException]]:
        """Update the tracked adjacency; drop (or fail on) duplicates.

        Returns the possibly-filtered id arrays, the number of events
        actually consumed (a strict-mode error truncates the run to the
        scalar path's partial-batch semantics), the malformed count, and
        the pending StreamError (raised by the caller after the
        surviving prefix is fully applied).
        """
        c = self._c
        graph = c._graph
        gadj = graph._adj
        strict = c.config.strict
        g_vertices = g_edges = 0
        dropped: List[int] = []
        pending_error: Optional[BaseException] = None
        n_events = int(lo.size)
        # Grow the id-indexed adjacency once for the whole run; ids are
        # dense, so the largest endpoint bounds every access below.
        max_id = max(int(lo.max()), int(hi.max()))
        if max_id >= len(gadj):
            gadj.extend([None] * (max_id + 1 - len(gadj)))
        try:
            for i, (uid, vid) in enumerate(zip(lo.tolist(), hi.tolist())):
                nu = gadj[uid]
                if nu is None:
                    gadj[uid] = {vid: None}
                    g_vertices += 1
                elif vid in nu:
                    if strict:
                        label_of = c._intern.label_of
                        pending_error = StreamError(
                            f"duplicate ADD_EDGE "
                            f"({label_of(uid)!r}, {label_of(vid)!r})"
                        )
                        n_events = i + 1
                        dropped.append(i)
                        break
                    dropped.append(i)
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
        finally:
            graph._id_count += g_vertices
            graph._num_edges += g_edges
        if pending_error is not None:
            # Strict mode: the raising event is counted (the scalar loop
            # increments its counters before the duplicate check) but
            # not applied further, and later events are never consumed.
            return lo[: n_events - 1], hi[: n_events - 1], n_events, 0, pending_error
        if dropped:
            lo = np.delete(lo, dropped)
            hi = np.delete(hi, dropped)
        return lo, hi, n_events, len(dropped), None
