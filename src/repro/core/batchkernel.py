"""The batch kernel: the one ingestion path of both kernels.

:meth:`StreamingGraphClusterer.apply_many` hands every batch to
:class:`BatchKernel`, and :meth:`StreamingGraphClusterer.apply` a
one-event batch, constrained or not. A segment of edge events goes
through these steps once, in this order:

1. **Intern** — the labels become ids in first-touch order (lo-then-hi
   per event, event order), so every split of a stream builds the
   identical label table.
2. **Tracked graph** — additions and deletions update the tracked
   adjacency in event order. A duplicate addition or a deletion of an
   absent edge is malformed: counted and skipped, or raised under
   ``strict``.
3. **Register** — endpoints of the additions not yet in the vertex
   universe are registered in first-touch order.
4. **Pack** — ``(min_id << 32) | max_id`` keys.
5. **Sample** — the only step that differs by kernel. ``scalar``:
   :meth:`RandomPairingReservoir.update_many` walks the keys in event
   order with exact Mersenne-Twister draws and returns the sample
   changes in order; the kernel links and cuts each one at once, so
   every counter is exact and every split of a stream into batches is
   byte-identical. ``numpy``: each run of additions between two
   deletions goes through :meth:`NumpyPackedEdgeReservoir.insert_many`,
   which draws a run's admissions per candidate (geometric gaps at the
   run's highest rate, thinned to each insert's rate; one scalar draw
   when there is no candidate), and each deletion through
   ``reservoir.delete``; unconstrained, the changes go into the
   sample-change log instead of the labels.

Under a constraint, both samplers ask the kernel's veto hook after an
admission's draws and before its eviction. The hook links and cuts the
changes sampled so far, so the policy sees current components, and
hands the policy the labels through :class:`_AsOfEvent`, which leaves
out of the component count the segment's registrations that later
events made (step 3 registered the whole segment first).

A batch splits into segments at its vertex events. A segment of at
least :data:`_SMALL_BATCH` int labels runs steps 1, 3 and 4 on whole
arrays (``np.minimum/maximum``, a dense label→id cache or
``np.unique``, a registration bitmap) and step 2 in a tight loop.
Shorter batches and segments, and other labels, run steps 1 to 4 event
by event in :meth:`BatchKernel._apply_small`. ``ADD_VERTEX`` registers
in place; ``DELETE_VERTEX``, which needs current adjacency, brings the
labels up to date and runs the clusterer's vertex deletion
(``kernel_fallback_events``).

Errors keep the prefix one event at a time would apply: when an event
raises, the events before it are applied completely, the raising event
is counted as it would be alone, and the ids and vertex registrations
only later events brought are forgotten. On the numpy kernel a
duplicate sample key found inside ``insert_many`` stops the batch at the
end of that run of additions, whose draws are all spent.

The sample-change log (unconstrained numpy only) holds the net change
of the sample since the labels were last brought up to date: ``fresh``
keys are sampled but not linked, ``stale`` keys are linked but no longer
sampled. The next reader calls :meth:`BatchKernel.sync`, which cuts the
stale keys and links the fresh ones, O(changed keys) instead of
O(sample); a log past a quarter of the sample is dropped and that read
rebuilds the labels in one pass. A net diff cannot attribute merges or
splits to events, so there ``component_merges`` and
``component_splits`` count only the splits of vertex deletions; its
other counters are exact (docs/performance.md, "Statistics contract").
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from itertools import islice
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.constraints import Unconstrained
from repro.errors import StreamError

# Not called here any more. The served-stream benchmark's traced
# launcher (benchmarks/servebench/traced_serve.py) patches this module
# attribute at start-up, so the name stays until those spans move.
from repro.sampling.vectorized import edge_components  # noqa: F401
from repro.streams.events import EVENT_KINDS, EdgeEvent, EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.clusterer import StreamingGraphClusterer

__all__ = ["BatchKernel", "NumpyBatchKernel"]

_U32 = np.uint64(32)
_MASK32 = 0xFFFFFFFF

#: Batches and segments of fewer events (and labels that are not all
#: ints) intern, register and pack in plain Python. Numpy costs tens of
#: microseconds per segment before the first event. This is the measured
#: crossover, per event on clusterers fed int tuples (2-vCPU x86-64 VM),
#: plain Python against the array steps. Warmed, on insert-only streams
#: they met at 32 to 48 events on both kernels, tracked and lean (tracked
#: scalar: 3.41 against 3.45 µs at 32, 2.97 against 2.44 at 64); with 30%
#: deletions at 48 to 96 (3.00 against 3.12 µs at 64). On E4's stream,
#: where a batch brings many new labels, plain Python stayed ahead up to
#: about 128 (about 7% at 64).
_SMALL_BATCH = 64

#: The sample-change log is dropped once it holds more than
#: ``len(sample) // _LOG_SHARE`` keys (a quarter of the sample); the
#: next read then rebuilds the labels in one pass. Replaying a key (a
#: cut's search, a link's relabel) costs more than a rebuild spends on
#: one sampled edge, so a large diff replays slower than a rebuild: on
#: E6's drifting stream (dense communities, every edge sampled)
#: with a read after every batch, on a 2-vCPU VM, replaying diffs up to
#: the whole sample ran 1.37x slower than this bound, which is at
#: parity with rebuilding at every read (docs/performance.md). Dropping
#: also stops the logging until the next read, so bulk ingest without
#: reads logs at most a quarter of a sample's worth of changes.
_LOG_SHARE = 4

_GET_KIND = itemgetter(0)
_GET_U = itemgetter(1)
_GET_V = itemgetter(2)

_ADD_EDGE = EventKind.ADD_EDGE
_DELETE_EDGE = EventKind.DELETE_EDGE
#: ``EVENT_KINDS`` code of DELETE_EDGE. ADD_EDGE is code 0, so in a kind
#: array of edge events only the nonzero codes are the deletions.
_DELETE_CODE = EVENT_KINDS.index(_DELETE_EDGE)


class BatchKernel:
    """Batch executor bound to one clusterer, for either kernel.

    Everything it touches is the clusterer's own state — reservoir,
    interner, tracked graph, component labels. On the unconstrained
    numpy kernel :meth:`sync` brings the component labels up to date
    with the sample before anything reads them.
    """

    __slots__ = (
        "_c",
        "_exact",
        "_policy",
        "_view",
        "_registered",
        "_reg_epoch",
        "_reg_count",
        "_label_map",
        "_id_objects",
        "_id_count",
        "_fresh",
        "_stale",
        "_overflow",
    )

    #: Dense label→id cache ceiling: int labels in [0, 2**22) gather their
    #: ids straight out of a numpy array instead of the interner's dict
    #: (≤32 MiB of int64 at full size, grown geometrically on demand).
    _LABEL_MAP_LIMIT = 1 << 22

    def __init__(self, clusterer: "StreamingGraphClusterer") -> None:
        # Weak: the clusterer owns its kernel, and a strong reference back
        # would make every clusterer a cycle that outlives its last user
        # until the cyclic collector runs.
        self._c = weakref.ref(clusterer)
        # Scalar kernel: sample with ``update_many``'s exact draws; numpy:
        # sample vectorized.
        self._exact = clusterer.config.kernel == "scalar"
        constraint = clusterer.config.constraint
        self._policy = None if type(constraint) is Unconstrained else constraint
        self._view = _AsOfEvent(clusterer._components)
        # Registration bitmap over ids, valid for one vertex epoch and
        # caught up lazily with the registrations appended since
        # (``_reg_count`` is how many of the universe's entries it holds).
        self._registered = np.zeros(256, dtype=bool)
        self._reg_epoch = -1  # force a rebuild on first use
        self._reg_count = 0
        self._label_map = np.full(256, -1, dtype=np.int64)
        # The interner's own int object for each id (the first
        # ``_id_count`` entries are set), so ids that come out of an id
        # array and go into a lasting dict (the tracked graph, the
        # universe) share one object per id: ``tolist`` makes new ints.
        self._id_objects = np.empty(0, dtype=object)
        self._id_count = 0
        # The sample-change log (module docstring), insertion-ordered
        # dicts of packed keys: sampled but not linked, linked but no
        # longer sampled. ``_overflow`` means the log was dropped.
        self._fresh: Dict[int, None] = {}
        self._stale: Dict[int, None] = {}
        self._overflow = False

    # ------------------------------------------------------------------
    # The sample-change log
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Bring the component labels up to date with the sample.

        Nothing logged: returns at once. Log dropped: rebuilds the labels
        from the reservoir in one pass. Otherwise cuts every stale key,
        then links every fresh one.
        """
        if self._overflow:
            self._overflow = False
            c = self._c()
            c._components.rebuild(
                (key >> 32, key & _MASK32) for key in c._reservoir
            )
            return
        fresh = self._fresh
        stale = self._stale
        if not (fresh or stale):
            return
        components = self._c()._components
        cut = components.cut
        for key in stale:
            cut(key >> 32, key & _MASK32)
        link = components.link
        for key in fresh:
            link(key >> 32, key & _MASK32)
        fresh.clear()
        stale.clear()

    def _bound_log(self) -> None:
        """Drop the log once replaying it would cost more than a rebuild."""
        if (len(self._fresh) + len(self._stale)) * _LOG_SHARE > len(self._c()._reservoir):
            self._fresh.clear()
            self._stale.clear()
            self._overflow = True

    def settle_stats(self) -> None:
        """Does nothing: the kernel keeps no pending statistics.

        The served-stream benchmark's traced launcher
        (benchmarks/servebench/traced_serve.py) wraps this method by
        name at start-up, so it stays until that span is retargeted.
        """

    def _registration_bitmap(self) -> np.ndarray:
        """Bitmap of the ids in the vertex universe.

        Rebuilt when the clusterer's vertex epoch moved (a vertex left
        the universe); otherwise grown to cover every id and caught up
        with the registrations appended since the last call, which are
        the newest entries of the insertion-ordered universe.
        """
        c = self._c()
        universe = c._components.universe
        size = max(256, len(c._intern) + 1024)
        if self._reg_epoch != c._vertex_epoch:
            self._reg_epoch = c._vertex_epoch
            self._registered = np.zeros(size, dtype=bool)
            self._reg_count = 0
        elif self._registered.size < len(c._intern):
            grown = np.zeros(size, dtype=bool)
            grown[: self._registered.size] = self._registered
            self._registered = grown
        appended = len(universe) - self._reg_count
        if appended:
            newest = islice(reversed(universe), appended)
            self._registered[np.fromiter(newest, dtype=np.int64, count=appended)] = True
            self._reg_count = len(universe)
        return self._registered

    # ------------------------------------------------------------------
    # Stream entry points
    # ------------------------------------------------------------------
    def apply_stream(self, events: Iterable) -> None:
        """Apply a batch of raw ``(kind, u, v)`` tuples and/or
        :class:`EdgeEvent` objects."""
        if type(events) is not list:
            events = list(events)
        if len(events) < _SMALL_BATCH or (
            type(events[0]) is tuple and type(events[0][1]) is not int
        ):
            # Short, or not int-labelled: no step would run on arrays.
            self._apply_small(events)
            return
        try:
            # itemgetter gathers columns at C speed (cheaper than a
            # zip(*...) transpose).
            kinds = list(map(_GET_KIND, events))
        except TypeError:
            # EdgeEvent objects are not subscriptable.
            events = [e if type(e) is tuple else (e.kind, e.u, e.v) for e in events]
            kinds = list(map(_GET_KIND, events))
        self._apply_kind_list(kinds, list(map(_GET_U, events)), list(map(_GET_V, events)))

    def apply_columns(self, kinds, us, vs) -> None:
        """Column-form entry (``EventColumns``).

        ``kinds`` is None when every event is an ``ADD_EDGE``, a list of
        :class:`EventKind`, or an integer array of ``EVENT_KINDS`` codes
        (the wire decode's form, split by kind with numpy). Label
        columns are lists from the stream readers or int64 arrays off
        the wire decode.
        """
        if kinds is None:
            self._apply_edges([], us, vs)
        elif type(kinds) is list:
            self._apply_kind_list(kinds, us, vs)
        elif not kinds.size:
            return
        elif int(kinds.min()) >= 0 and int(kinds.max()) <= _DELETE_CODE:
            self._apply_edges(np.flatnonzero(kinds).tolist(), us, vs)
        else:
            self._apply_kind_list(list(map(EVENT_KINDS.__getitem__, kinds.tolist())), us, vs)

    def _apply_kind_list(self, kinds: list, us, vs) -> None:
        """Apply columns whose kinds are a list of :class:`EventKind`:
        each run of edge events between two vertex events as one segment,
        each vertex event on its own."""
        n = len(kinds)
        n_adds = kinds.count(_ADD_EDGE)
        if n_adds == n:
            self._apply_edges([], us, vs)
            return
        dels = [i for i, k in enumerate(kinds) if k is _DELETE_EDGE]
        if n_adds + len(dels) == n:
            self._apply_edges(dels, us, vs)
            return
        if type(us) is not list:
            us = us.tolist()
            vs = vs.tolist()
        start = d = 0
        for i, kind in enumerate(kinds):
            if kind is _ADD_EDGE or kind is _DELETE_EDGE:
                continue
            if start < i:
                first = d
                d = bisect_left(dels, i, d)
                self._apply_edges(
                    [p - start for p in dels[first:d]], us[start:i], vs[start:i]
                )
            self._apply_vertex_event(kind, us[i], vs[i])
            start = i + 1
        if start < n:
            self._apply_edges([p - start for p in dels[d:]], us[start:], vs[start:])

    def _apply_edges(self, dels: Sequence[int], us, vs) -> None:
        """Apply a segment of edge events in order; ``dels`` holds the
        ascending positions of the ``DELETE_EDGE`` events, the rest are
        additions.

        A long segment of int labels (exactly ``int``: bools are
        excluded, because ``True`` and ``1`` are distinct labels to a
        dict but not to an array) or of int64 array columns runs each
        step of the module docstring once, on whole arrays. Any other
        segment takes :meth:`_apply_small`.
        """
        au = None
        if len(us) >= _SMALL_BATCH:
            if isinstance(us, np.ndarray):
                au = np.asarray(us, dtype=np.int64)
                av = np.asarray(vs, dtype=np.int64)
            elif set(map(type, us)) == {int} == set(map(type, vs)):
                try:
                    au = np.asarray(us, dtype=np.int64)
                    av = np.asarray(vs, dtype=np.int64)
                except OverflowError:
                    pass
        if au is None:
            kinds = [_ADD_EDGE] * len(us)
            for d in dels:
                kinds[d] = _DELETE_EDGE
            if type(us) is not list:
                us = us.tolist()
                vs = vs.tolist()
            self._apply_small(zip(kinds, us, vs))
            return
        c = self._c()
        first_id = len(c._intern)
        lo, hi, error = self._intern_int_pairs(au, av)
        # ``stop`` events are consumed: all of them, or up to and
        # including the first that raises.
        stop = int(lo.size)
        if not stop:
            if error is not None:
                raise error
            return
        if dels and dels[-1] >= stop:
            dels = dels[: bisect_left(dels, stop)]
        dropped: List[int] = []
        if c._graph is not None:
            ids = self._shared_ids()
            dropped, stop, graph_error = self._graph_pass(
                ids[lo].tolist(), ids[hi].tolist(), dels
            )
            if graph_error is not None:
                error = graph_error
                dels = dels[: bisect_left(dels, stop)]
        fresh = self._register(lo[:stop], hi[:stop], dels, dropped)
        keys, sample_dels, skip = self._pack(lo[:stop], hi[:stop], dels, dropped)
        veto = None if self._policy is None else self._veto_hook(keys, sample_dels, fresh)
        if self._exact:
            c.kernel_batches += 1
            changes, sampled, sample_error = c._reservoir.update_many(
                keys.tolist(), sample_dels, veto
            )
            if changes:
                self._take(changes)
        else:
            sampled, sample_error = self._sample_runs(keys, sample_dels, skip, veto)
        if sample_error is not None:
            # A sampling error needs a lean clusterer, which drops nothing:
            # sampled positions are event positions.
            stop = sampled + 1
            error = sample_error
        if error is not None:
            self._forget(first_id, zip(lo[:stop].tolist(), hi[:stop].tolist()), dels, fresh)
        stats = c.stats
        n_dels = bisect_left(dels, stop)
        stats.events += stop
        stats.edge_adds += stop - n_dels
        stats.edge_deletes += n_dels
        if not c.config.strict:
            stats.malformed_events += len(dropped)
        c.kernel_events += stop
        if fresh:
            c._invalidate()
        if error is not None:
            raise error

    def _apply_small(self, events) -> None:
        """Apply a short batch of ``(kind, u, v)`` tuples or
        :class:`EdgeEvent` objects in plain Python.

        Steps 1 to 4 of the module docstring run event by event, each
        event's checks in order; the keys of each run of edge events
        between two vertex events then go to the kernel's sampler in one
        call. A raising event ends the batch after the
        events before it are sampled; a sampling error also forgets what
        the run's later events interned and registered.
        """
        c = self._c()
        intern = c._intern
        iget = intern._ids.get
        iadd = intern.intern
        labels = intern._labels
        graph = c._graph
        gadj = None if graph is None else graph._adj
        strict = c.config.strict
        exact = self._exact
        universe = c._components.universe
        stats = c.stats
        add_edge = _ADD_EDGE
        delete_edge = _DELETE_EDGE
        events = iter(events)
        while True:
            keys: List[int] = []
            dels: List[int] = []
            skip: List[int] = []
            fresh: List[int] = []
            first_id = len(labels)
            n_events = n_dels = n_malformed = g_vertices = g_edges = 0
            error: Optional[BaseException] = None
            vertex_event = None
            try:
                for event in events:
                    if type(event) is tuple:
                        kind, u, v = event
                    else:
                        kind, u, v = event.kind, event.u, event.v
                    if kind is add_edge:
                        add = True
                    elif kind is delete_edge:
                        add = False
                        if v is None:
                            error = ValueError(f"{kind.value} event requires two endpoints")
                            break
                    else:
                        vertex_event = (kind, u, v)
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
                    n_events += 1
                    if not add:
                        n_dels += 1
                    if gadj is not None:
                        # AdjacencyGraph.add_edge_ids / remove_edge_ids,
                        # inlined; the counters are settled below.
                        nu = gadj[uid] if uid < len(gadj) else None
                        present = nu is not None and vid in nu
                        if add and not present:
                            top = uid if uid > vid else vid
                            if top >= len(gadj):
                                gadj.extend([None] * (top + 1 - len(gadj)))
                            if nu is None:
                                gadj[uid] = {vid: None}
                                g_vertices += 1
                            else:
                                nu[vid] = None
                            nv = gadj[vid]
                            if nv is None:
                                gadj[vid] = {uid: None}
                                g_vertices += 1
                            else:
                                nv[uid] = None
                            g_edges += 1
                        elif present and not add:
                            del nu[vid]
                            del gadj[vid][uid]
                            g_edges -= 1
                        else:
                            if strict:
                                error = StreamError(
                                    f"duplicate ADD_EDGE ({u!r}, {v!r})"
                                    if add
                                    else f"DELETE_EDGE of absent edge ({u!r}, {v!r})"
                                )
                                break
                            n_malformed += 1
                            if add or exact:
                                continue
                            # A numpy run ends at every deletion, malformed or not.
                            skip.append(len(keys))
                    if add:
                        if uid not in universe:
                            universe[uid] = None
                            fresh.append(uid)
                        if vid not in universe:
                            universe[vid] = None
                            fresh.append(vid)
                    else:
                        dels.append(len(keys))
                    keys.append((uid << 32) | vid if uid < vid else (vid << 32) | uid)
            except (TypeError, ValueError) as exc:  # an unhashable label, a bad event shape
                error = exc
            if graph is not None:
                graph._id_count += g_vertices
                graph._num_edges += g_edges
            if keys:
                veto = None if self._policy is None else self._veto_hook(keys, dels, fresh)
                if exact:
                    c.kernel_batches += 1
                    changes, sampled, sample_error = c._reservoir.update_many(keys, dels, veto)
                    if changes:
                        self._take(changes)
                else:
                    sampled, sample_error = self._sample_runs(
                        np.array(keys, dtype=np.uint64), dels, skip, veto
                    )
                if sample_error is not None:
                    # Lean only, so every event made a key: forget the
                    # events after the one that raised.
                    error = sample_error
                    n_events = sampled + 1
                    n_dels = bisect_left(dels, n_events)
                    kept = [(key >> 32, key & _MASK32) for key in keys[:n_events]]
                    self._forget(first_id, kept, dels, fresh)
            stats.events += n_events
            stats.edge_adds += n_events - n_dels
            stats.edge_deletes += n_dels
            stats.malformed_events += n_malformed
            c.kernel_events += n_events
            if fresh:
                c._invalidate()
            if error is not None:
                raise error
            if vertex_event is None:
                return
            self._apply_vertex_event(*vertex_event)

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _intern_int_pairs(
        self, au: np.ndarray, av: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, Optional[BaseException]]:
        """Bulk label→id interning for int labels, first-touch ordered,
        up to the first self-loop, whose error comes back with the ids.

        Labels in ``[0, _LABEL_MAP_LIMIT)`` resolve through a dense numpy
        label→id cache — one gather for a fully warmed-up segment, a
        small first-touch-ordered intern loop for the stragglers. The
        cache is only ever *missing* an entry, never wrong: labels
        interned outside this method leave a ``-1`` that falls through
        to the interner's get-or-add, and a rollback clears the entries
        of the labels it forgets. Out-of-range labels take the
        per-unique dict path.
        """
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
            return au, av, error
        intern = self._c()._intern
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
                # Assign new ids in the order one event at a time would:
                # by the label's first appearance in the lo/hi-interleaved
                # stream (np.unique's return_index preserves that order
                # within the unknown subset).
                fresh, first_idx = np.unique(flat[unknown], return_index=True)
                order = np.argsort(first_idx, kind="stable")
                iadd = intern.intern
                for label in fresh[order].tolist():
                    lmap[label] = iadd(label)
                ids_flat[unknown] = lmap[flat[unknown]]
            return ids_flat[0::2], ids_flat[1::2], error
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
        return ids_flat[0::2], ids_flat[1::2], error

    # ------------------------------------------------------------------
    # Tracked graph, registration and packing
    # ------------------------------------------------------------------
    def _graph_pass(
        self, lo: List[int], hi: List[int], dels: Sequence[int]
    ) -> Tuple[List[int], int, Optional[BaseException]]:
        """Apply a segment's edge events to the tracked adjacency in
        event order.

        Returns the positions of the malformed events (a duplicate
        addition, a deletion of an absent edge), the number of events
        consumed and the pending :class:`StreamError`. Under ``strict``
        the first malformed event raises: it is consumed (counted as an
        event) but not applied, and it ends the segment.
        """
        c = self._c()
        graph = c._graph
        gadj = graph._adj
        strict = c.config.strict
        g_vertices = g_edges = 0
        dropped: List[int] = []
        n = len(lo)
        # Grow the id-indexed adjacency once for the whole segment: every
        # id is below the interner's size.
        if len(gadj) < len(c._intern):
            gadj.extend([None] * (len(c._intern) - len(gadj)))
        start = 0
        try:
            for end in (*dels, n):
                for i, uid, vid in zip(range(start, end), lo[start:end], hi[start:end]):
                    nu = gadj[uid]
                    if nu is None:
                        gadj[uid] = {vid: None}
                        g_vertices += 1
                    elif vid in nu:
                        dropped.append(i)
                        if strict:
                            label_of = c._intern.label_of
                            return dropped, i + 1, StreamError(
                                f"duplicate ADD_EDGE "
                                f"({label_of(uid)!r}, {label_of(vid)!r})"
                            )
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
                if end == n:
                    break
                uid = lo[end]
                vid = hi[end]
                nu = gadj[uid]
                if nu is None or vid not in nu:
                    dropped.append(end)
                    if strict:
                        label_of = c._intern.label_of
                        return dropped, end + 1, StreamError(
                            f"DELETE_EDGE of absent edge "
                            f"({label_of(uid)!r}, {label_of(vid)!r})"
                        )
                else:
                    del nu[vid]
                    del gadj[vid][uid]
                    g_edges -= 1
                start = end + 1
            return dropped, n, None
        finally:
            graph._id_count += g_vertices
            graph._num_edges += g_edges

    def _register(self, lo, hi, dels, dropped) -> List[int]:
        """Register the endpoints of the segment's additions (the events
        not in ``dels`` or ``dropped``) that are not yet in the vertex
        universe, in first-touch order; returns them in that order."""
        if dels or dropped:
            adds = np.ones(lo.size, dtype=bool)
            adds[list(dels)] = False  # a tuple index would select all
            adds[dropped] = False
            lo = lo[adds]
            hi = hi[adds]
        flat = np.empty(lo.size * 2, dtype=np.int64)
        flat[0::2] = lo
        flat[1::2] = hi
        registered = self._registration_bitmap()
        known = registered[flat]
        if known.all():
            return []
        uniq, first_idx = np.unique(flat[~known], return_index=True)
        fresh_ids = uniq[np.argsort(first_idx, kind="stable")]
        registered[fresh_ids] = True
        fresh = self._shared_ids()[fresh_ids].tolist()
        universe = self._c()._components.universe
        universe.update(dict.fromkeys(fresh))
        self._reg_count = len(universe)
        return fresh

    def _pack(self, lo, hi, dels, dropped):
        """Packed keys of the segment's events that are not malformed,
        the positions of the deletions among them, and the positions of
        the malformed deletions the numpy kernel keeps as run
        boundaries."""
        keys = (np.minimum(lo, hi).astype(np.uint64) << _U32) | np.maximum(
            lo, hi
        ).astype(np.uint64)
        skip: Set[int] = set()
        if dropped:
            gone = set(dropped)
            if not self._exact:
                # A numpy run ends at every deletion, malformed or not:
                # where a run ends decides its vectorized draws.
                skip = gone.intersection(dels)
                gone -= skip
            if gone:
                shift = sorted(gone)
                keys = np.delete(keys, shift)
                skip = {d - bisect_left(shift, d) for d in skip}
                dels = [d - bisect_left(shift, d) for d in dels if d not in gone]
        return keys, dels, skip

    def _shared_ids(self) -> np.ndarray:
        """:attr:`_id_objects`, extended to every id interned so far."""
        intern = self._c()._intern
        start = self._id_count
        end = len(intern)
        if start < end:
            if self._id_objects.size < end:
                grown = np.empty(max(2 * self._id_objects.size, end, 256), dtype=object)
                grown[:start] = self._id_objects[:start]
                self._id_objects = grown
            # The interner's dict holds its ids in insertion order, which
            # is id order: the newest values are the missing ids.
            newest = list(islice(reversed(intern._ids.values()), end - start))
            newest.reverse()
            self._id_objects[start:end] = newest
            self._id_count = end
        return self._id_objects

    def _forget(self, first_id: int, kept, dels, fresh: List[int]) -> None:
        """Undo what a stopped segment did past the event that raised.

        ``kept`` holds the id pairs of the events the segment keeps and
        ``dels`` the positions of their deletions. New ids are dense and
        assigned in first-touch order, so the ids above the kept pairs'
        (and not below ``first_id``) are the newest: they are forgotten.
        So are the registrations in ``fresh`` that no kept addition
        touched, the newest entries of the universe.
        """
        c = self._c()
        deleted = set(dels)
        touched = set()
        last = first_id - 1
        for i, (a, b) in enumerate(kept):
            last = max(last, a, b)
            if i not in deleted:
                touched.add(a)
                touched.add(b)
        ids = c._intern._ids
        labels = c._intern._labels
        lmap = self._label_map
        for label in labels[last + 1 :]:
            del ids[label]
            if type(label) is int and 0 <= label < lmap.size:
                lmap[label] = -1
        del labels[last + 1 :]
        self._id_count = min(self._id_count, last + 1)
        unregister = [vid for vid in fresh if vid not in touched]
        if unregister:
            universe = c._components.universe
            for vid in unregister:
                del universe[vid]
            c._vertex_epoch += 1

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _take(self, changes: List[Tuple[Optional[int], Optional[int]]]) -> None:
        """Count a sampler's changes, ``(gone, came)`` pairs in event order
        (None for no key), and bring them into the component labels: cut
        and linked at once, merges and splits counted, or logged on the
        unconstrained numpy kernel.

        A logged admission moves its key out of ``stale``, or else into
        ``fresh``; a logged removal out of ``fresh``, or else into
        ``stale``. Order matters: in lean mode a key can leave, come back
        and leave again within one run.
        """
        c = self._c()
        removals = evictions = merges = splits = 0
        if c._lagging:
            fresh = self._fresh
            stale = self._stale
            log = not self._overflow
            for gone, came in changes:
                if gone is not None:
                    if came is None:
                        removals += 1
                    else:
                        evictions += 1
                    if log:
                        if gone in fresh:
                            del fresh[gone]
                        else:
                            stale[gone] = None
                if log and came is not None:
                    if came in stale:
                        del stale[came]
                    else:
                        fresh[came] = None
            if log:
                self._bound_log()
        else:
            components = c._components
            cut = components.cut
            link = components.link
            for gone, came in changes:
                if gone is not None:
                    if cut(gone >> 32, gone & _MASK32):
                        splits += 1
                    if came is None:
                        removals += 1
                        continue
                    evictions += 1
                if link(came >> 32, came & _MASK32):
                    merges += 1
        stats = c.stats
        stats.admissions += len(changes) - removals
        stats.evictions += evictions
        stats.sample_deletions += removals
        stats.component_merges += merges
        stats.component_splits += splits
        c._invalidate()

    def _veto_hook(self, keys, dels: Sequence[int], fresh: List[int]):
        """The samplers' veto for a segment: ``keys`` are its packed keys,
        ``dels`` the positions of the deletions among them, and ``fresh``
        the ids its additions registered, in first-touch order.

        Each call first takes the changes sampled so far, so the policy
        sees current components, then asks the policy through
        :class:`_AsOfEvent`, which leaves out the registrations of
        ``fresh`` that later events of the segment made.
        """
        policy = self._policy
        view = self._view
        view.later = 0
        stats = self._c().stats
        registered_at: List[int] = []

        def veto(i: int, key: int, changes: list) -> bool:
            if changes:
                self._take(changes)
                changes.clear()
            if fresh:
                if not registered_at:
                    registered_at.extend(_first_additions(keys, dels, fresh))
                view.later = len(fresh) - bisect_right(registered_at, i)
            if policy.allows(view, key >> 32, key & _MASK32):
                return False
            stats.vetoes += 1
            return True

        return veto

    def _sample_runs(self, keys: np.ndarray, dels: List[int], skip: Collection[int], veto):
        """Numpy kernel: one ``insert_many`` per run of additions and one
        ``reservoir.delete`` per deletion not in ``skip`` (the malformed
        ones), each outcome taken at once. Returns the position of the
        event that raised and its error, or the number of events and
        None."""
        c = self._c()
        reservoir = c._reservoir
        n = int(keys.size)
        start = 0
        for end in (*dels, n):
            if start < end:
                changes: list = []
                c.kernel_batches += 1
                run_veto = None
                if veto is not None:
                    def run_veto(i, key, changes, start=start):
                        return veto(start + i, key, changes)
                try:
                    reservoir.insert_many(keys[start:end], changes, run_veto)
                except ValueError as error:
                    return end - 1, error
                finally:
                    if changes:
                        self._take(changes)
            start = end + 1
            if end == n or end in skip:
                continue
            key = int(keys[end])
            try:
                sampled = reservoir.delete(key)
            except ValueError as error:
                return end, error
            if sampled:
                self._take([(key, None)])
        return n, None

    # ------------------------------------------------------------------
    # Vertex events
    # ------------------------------------------------------------------
    def _apply_vertex_event(self, kind, u, v) -> None:
        """An ``ADD_VERTEX`` registers in place (it reads no labels); a
        ``DELETE_VERTEX``, which needs current adjacency, brings the
        labels up to date and runs the clusterer's vertex deletion."""
        if kind is not EventKind.ADD_VERTEX and kind is not EventKind.DELETE_VERTEX:
            raise ValueError(f"unknown event kind {kind!r}")
        if v is not None:
            raise ValueError(f"{kind.value} event takes a single vertex")
        c = self._c()
        if kind is EventKind.ADD_VERTEX:
            c.stats.events += 1
            c.stats.vertex_adds += 1
            c.kernel_events += 1
            uid = c._intern.intern(u)
            if c._graph is not None:
                c._graph.add_vertex_id(uid)
            if c._components.add_vertex(uid):
                c._invalidate()
            return
        c.kernel_fallback_events += 1
        self.sync()
        c.stats.events += 1
        c._on_delete_vertex(u)


def _first_additions(keys, dels: Sequence[int], fresh: List[int]) -> List[int]:
    """For each id in ``fresh``, the position of the first addition among
    ``keys`` (deletions at positions ``dels``) that touches it, ascending."""
    if type(keys) is not list:
        keys = keys.tolist()
    waiting = set(fresh)
    deleted = set(dels)
    positions: List[int] = []
    for i, key in enumerate(keys):
        if i in deleted:
            continue
        for vid in (key >> 32, key & _MASK32):
            if vid in waiting:
                waiting.discard(vid)
                positions.append(i)
        if not waiting:
            break
    return positions


class _AsOfEvent:
    """The component labels as a veto at one event of a segment sees them.

    The kernel registers a whole segment's endpoints before it samples
    any of it, and the labels count every registered vertex without a
    sampled edge as a singleton component. ``later`` is the number of the
    segment's registrations first made by events after the one asked
    about (singletons at that point); the view leaves them out of the
    component and vertex counts, so each veto sees what it would see one
    event at a time. Everything else reads the labels.
    """

    __slots__ = ("_labels", "later", "connected", "component_size")

    def __init__(self, labels) -> None:
        self._labels = labels
        self.later = 0
        self.connected = labels.connected
        self.component_size = labels.component_size

    def __getattr__(self, name: str):
        return getattr(self._labels, name)

    @property
    def num_components(self) -> int:
        return self._labels.num_components - self.later

    @property
    def num_vertices(self) -> int:
        return self._labels.num_vertices - self.later


#: The name the served-stream benchmark's traced launcher patches
#: (benchmarks/servebench/traced_serve.py).
NumpyBatchKernel = BatchKernel
