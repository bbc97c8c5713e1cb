"""Tests for the numpy batch kernel and its vectorized primitives.

Covers the three contracts ``--kernel numpy`` makes:

* the vectorized shard routing is *bit-for-bit* the scalar routing;
* the kernel is deterministic and checkpoint-exact (byte-identical
  round trips, including a mid-stream save/restore);
* the sample it draws is *distribution-equivalent* to the scalar
  kernel's (identical under an injected RNG, chi-square-indistinguishable
  under real RNGs) — the kernel trades bitstream compatibility for
  throughput, never correctness.
"""

import math
import pickle
import random

import numpy as np
import pytest

from repro.core.clusterer import StreamingGraphClusterer
from repro.core.config import ClustererConfig
from repro.core.sharded import ShardedClusterer, _shard_of
from repro.sampling.random_pairing import PackedEdgeReservoir
from repro.sampling.vectorized import (
    NumpyPackedEdgeReservoir,
    edge_components,
    shard_ids,
)
from repro.errors import StreamError
from repro.streams.events import EVENT_KINDS, EdgeEvent, EventColumns, EventKind

ADD = EventKind.ADD_EDGE
DEL = EventKind.DELETE_EDGE
ADDV = EventKind.ADD_VERTEX


def _mixed_events(n, num_vertices, seed, delete_rate=0.2):
    """A valid add/delete tuple stream (deletes only hit live edges)."""
    rng = random.Random(seed)
    events, live = [], set()
    while len(events) < n:
        if live and rng.random() < delete_rate:
            edge = rng.choice(sorted(live))
            live.discard(edge)
            events.append((DEL, edge[0], edge[1]))
            continue
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in live:
            continue
        live.add(edge)
        events.append((ADD, u, v))
    return events


# ----------------------------------------------------------------------
# shard_ids: bit-for-bit scalar routing
# ----------------------------------------------------------------------
class TestShardIds:
    def test_matches_scalar(self):
        rng = random.Random(11)
        lo = [rng.randrange(-(2**62), 2**62) for _ in range(500)]
        hi = [x + rng.randrange(1, 1000) for x in lo]
        for num_shards in (1, 2, 3, 7, 16):
            vec = shard_ids(np.array(lo), np.array(hi), num_shards)
            for u, v, got in zip(lo, hi, vec.tolist()):
                assert got == _shard_of((u, v), num_shards)

    def test_small_dense_ids(self):
        # The interned hot path feeds small non-negative ids.
        lo = np.arange(0, 300, dtype=np.int64)
        hi = lo + 1
        vec = shard_ids(lo, hi, 5)
        expect = [_shard_of((int(u), int(v)), 5) for u, v in zip(lo, hi)]
        assert vec.tolist() == expect


# ----------------------------------------------------------------------
# edge_components: matches a union-find ground truth
# ----------------------------------------------------------------------
class TestEdgeComponents:
    def test_matches_union_find(self):
        from repro.connectivity.union_find import UnionFind

        rng = random.Random(3)
        for trial in range(20):
            edges = set()
            while len(edges) < rng.randrange(1, 60):
                u = rng.randrange(40)
                v = rng.randrange(40)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            keys = np.array(
                [(u << 32) | v for u, v in sorted(edges)], dtype=np.uint64
            )
            count, vertices, labels = edge_components(keys)
            union = UnionFind()
            for u, v in edges:
                union.add(u)
                union.add(v)
                union.union(u, v)
            assert count == union.num_sets
            groups = {}
            for vertex, label in zip(vertices.tolist(), labels.tolist()):
                groups.setdefault(label, set()).add(vertex)
            expect = {frozenset(g) for g in union.groups()}
            assert {frozenset(g) for g in groups.values()} == expect

    def test_empty(self):
        assert edge_components(np.array([], dtype=np.uint64)) == (0, None, None)


# ----------------------------------------------------------------------
# Sharded / pipeline vectorized routing
# ----------------------------------------------------------------------
class TestVectorizedRouting:
    def _run_sharded(self, events, *, disable_vectorized):
        config = ClustererConfig(
            reservoir_capacity=120, seed=7, kernel="numpy", strict=False
        )
        sharded = ShardedClusterer(config, 4)
        if disable_vectorized:
            sharded._route_vectorized = lambda events: False
        for start in range(0, len(events), 512):
            sharded.apply_many(events[start : start + 512])
        return sharded

    def test_sharded_routing_matches_scalar_loop(self):
        events = _mixed_events(4000, 400, seed=5)
        fast = self._run_sharded(events, disable_vectorized=False)
        slow = self._run_sharded(events, disable_vectorized=True)
        assert fast.shard_events == slow.shard_events
        assert fast.snapshot() == slow.snapshot()
        fast_states = fast.get_state()["shards"]
        slow_states = slow.get_state()["shards"]
        assert pickle.dumps(fast_states) == pickle.dumps(slow_states)

    def test_sharded_self_loop_raises_like_scalar(self):
        events = [(ADD, 1, 2), (ADD, 5, 5)]
        outcomes = []
        for kernel in ("scalar", "numpy"):
            config = ClustererConfig(reservoir_capacity=50, seed=1, kernel=kernel)
            sharded = ShardedClusterer(config, 3)
            with pytest.raises(ValueError) as err:
                sharded.apply_many(events)
            outcomes.append((str(err.value), sharded.shard_events[:]))
        assert outcomes[0] == outcomes[1]

    def test_sharded_falls_back_on_barriers_and_odd_types(self):
        # Vertex barriers, bools, and huge ints must take the scalar
        # loop; routing (shard_events) must agree with a scalar-kernel
        # run, which shares the routing code for every event.
        events = _mixed_events(800, 100, seed=9)
        events.insert(200, (EventKind.ADD_VERTEX, 5000, None))
        events.insert(500, (ADD, True, 2**70))
        counts = []
        for kernel in ("scalar", "numpy"):
            config = ClustererConfig(
                reservoir_capacity=60, seed=3, kernel=kernel, strict=False
            )
            sharded = ShardedClusterer(config, 4)
            sharded.apply_many(events)
            counts.append(sharded.shard_events[:])
        assert counts[0] == counts[1]

    def test_pipeline_routing_matches_scalar_loop(self):
        from repro.core.pipeline import PipelineClusterer

        events = _mixed_events(1500, 200, seed=13)
        config = ClustererConfig(
            reservoir_capacity=90, seed=9, kernel="numpy", strict=False
        )
        results = []
        for disable in (False, True):
            pipeline = PipelineClusterer(config, 3, batch_events=256)
            if disable:
                pipeline._route_vectorized = lambda events: False
            try:
                for start in range(0, len(events), 256):
                    pipeline.apply_many(events[start : start + 256])
                results.append(
                    (pipeline.shard_events[:], pipeline.snapshot())
                )
            finally:
                pipeline.close()
        assert results[0] == results[1]


# ----------------------------------------------------------------------
# Scalar / numpy equivalence under an injected RNG
# ----------------------------------------------------------------------
def _det_bits(bits):
    """A deterministic draw of ``bits`` random bits: a pure function of
    ``bits``, zero for every even count, else ``2**(bits - 1) - 1``.
    Either is below any bound of that bit length, so ``update_many``'s
    accept-reject loop takes it at once."""
    return 0 if bits % 2 == 0 else (1 << (bits - 1)) - 1


def _det_draw(bound):
    """A deterministic 'draw' in [0, bound): the draw ``_InjectedRandom``
    makes for it, a pure function of the bound's bit length."""
    return _det_bits(bound.bit_length())


class _InjectedRandom:
    """Stands in for the scalar reservoir's Mersenne Twister, whose
    ``getrandbits`` is the only draw ``update_many`` makes."""

    def getrandbits(self, bits):
        return _det_bits(bits)


class _InjectedGenerator:
    """Stands in for the numpy reservoir's PCG64 Generator, answering
    the three call shapes ``insert_many`` uses."""

    def integers(self, low, high=None, size=None):
        if high is None:
            return _det_draw(int(low))
        if size is not None:
            return np.full(size, _det_draw(int(high)), dtype=np.int64)
        bounds = np.asarray(high).tolist()
        return np.array([_det_draw(int(b)) for b in bounds], dtype=np.int64)


class TestInjectedRngEquivalence:
    def test_identical_partitions_capacity_one(self):
        # With every random decision forced to the same pure function of
        # its bound, the two kernels make identical admission choices.
        # Capacity 1 makes the victim choice trivial too (slot orders —
        # an internal artifact that differs between swap-remove-append
        # and in-place overwrite — cannot diverge), so the *entire*
        # sample history, and hence every partition, must coincide.
        events = _mixed_events(600, 80, seed=21, delete_rate=0.15)

        def run(kernel):
            config = ClustererConfig(
                reservoir_capacity=1, seed=17, kernel=kernel, strict=False
            )
            clusterer = StreamingGraphClusterer(config)
            if kernel == "numpy":
                clusterer._reservoir._gen = _InjectedGenerator()
                feed = clusterer.apply_many
            else:
                # One event at a time, a split the numpy kernel's draws
                # depend on and the scalar kernel's do not.
                clusterer._reservoir._rng = _InjectedRandom()
                feed = clusterer.process
            samples = []
            for start in range(0, len(events), 128):
                feed(events[start : start + 128])
                samples.append(sorted(clusterer.reservoir_edges()))
            return clusterer, samples

        scalar, scalar_samples = run("scalar")
        vectorized, numpy_samples = run("numpy")
        assert scalar_samples == numpy_samples
        assert scalar.snapshot() == vectorized.snapshot()

    def test_identical_admission_decisions(self):
        # At full capacity the two reservoirs must *admit* the same
        # stream positions under the injected draws. Evicted keys are
        # excluded on purpose: a victim draw picks a slot index, and
        # slot order is internal state the two implementations arrange
        # differently (uniform either way; the chi-square test below
        # covers the resulting distribution).
        keys = [np.uint64((u << 32) | (u + 1000)) for u in range(500)]

        position_of = {int(key): i for i, key in enumerate(keys)}
        scalar = PackedEdgeReservoir(40, seed=3)
        scalar._rng = _InjectedRandom()
        changes, _, _ = scalar.update_many([int(key) for key in keys])
        scalar_admitted = [position_of[key] for _, key in changes]

        vectorized = NumpyPackedEdgeReservoir(40, seed=3)
        vectorized._gen = _InjectedGenerator()
        changes = vectorized.insert_many(np.array(keys))
        numpy_admitted = [position_of[key] for _, key in changes]
        assert scalar_admitted == numpy_admitted
        assert 40 < len(numpy_admitted) < len(keys)

    def test_insert_is_a_one_key_insert_many(self):
        # The numpy reservoir's single insert draws from its generator,
        # as insert_many does, not from the inherited Mersenne Twister.
        keys = [(u << 32) | (u + 1) for u in range(60)]
        one_by_one = NumpyPackedEdgeReservoir(5, seed=8)
        admitted = [one_by_one.insert(key) for key in keys]
        runs = NumpyPackedEdgeReservoir(5, seed=8)
        for key in keys:
            runs.insert_many(np.array([key], dtype=np.uint64))
        assert one_by_one.get_state() == runs.get_state()
        assert 5 < sum(admitted) < len(keys)


# ----------------------------------------------------------------------
# Distribution equivalence (chi-square) under real RNGs
# ----------------------------------------------------------------------
def _chi2_critical(dof, z=3.09):
    """Wilson-Hilferty upper quantile (z=3.09 ~ the 0.999 point)."""
    term = 2.0 / (9.0 * dof)
    return dof * (1.0 - term + z * math.sqrt(term)) ** 3


class TestDistributionEquivalence:
    def test_inclusion_chi_square(self):
        # 40 distinct edges, capacity 10: every edge should be sampled
        # with probability 1/4 by both kernels. Homogeneity chi-square
        # between the kernels' inclusion counts, plus goodness-of-fit
        # for the numpy kernel alone, both at the 0.999 point — loose
        # enough to be stable, tight enough to catch a biased batch
        # draw (e.g. an off-by-one in the steady-state populations).
        edges = [(i, i + 100) for i in range(40)]
        events = [(ADD, u, v) for u, v in edges]
        runs = 200
        counts = {"scalar": dict.fromkeys(edges, 0), "numpy": dict.fromkeys(edges, 0)}
        for kernel in ("scalar", "numpy"):
            for seed in range(runs):
                config = ClustererConfig(
                    reservoir_capacity=10, seed=seed, kernel=kernel
                )
                clusterer = StreamingGraphClusterer(config)
                clusterer.apply_many(events)
                sampled = clusterer.reservoir_edges()
                assert len(sampled) == 10
                for edge in sampled:
                    counts[kernel][edge] += 1

        expected = runs * 10 / 40
        gof = sum(
            (count - expected) ** 2 / expected
            for count in counts["numpy"].values()
        )
        assert gof < _chi2_critical(len(edges) - 1), (
            f"numpy inclusion counts non-uniform: chi2={gof:.1f}"
        )

        homogeneity = 0.0
        for edge in edges:
            a, b = counts["scalar"][edge], counts["numpy"][edge]
            column = a + b
            # Row totals are equal (runs * capacity each), so the
            # expected cell count is simply column/2.
            expect = column / 2
            if expect:
                homogeneity += (a - expect) ** 2 / expect
                homogeneity += (b - expect) ** 2 / expect
        assert homogeneity < _chi2_critical(len(edges) - 1), (
            f"scalar/numpy inclusion counts differ: chi2={homogeneity:.1f}"
        )


# ----------------------------------------------------------------------
# Determinism and persistence
# ----------------------------------------------------------------------
class TestNumpyPersistence:
    def _config(self, **overrides):
        settings = dict(
            reservoir_capacity=100, seed=23, kernel="numpy", strict=False
        )
        settings.update(overrides)
        return ClustererConfig(**settings)

    def test_two_runs_identical(self):
        events = _mixed_events(3000, 300, seed=29)

        def run():
            clusterer = StreamingGraphClusterer(self._config())
            for start in range(0, len(events), 512):
                clusterer.apply_many(events[start : start + 512])
            return clusterer

        first, second = run(), run()
        assert first.snapshot() == second.snapshot()
        assert pickle.dumps(first.get_state()) == pickle.dumps(second.get_state())

    def test_mid_stream_checkpoint_resume_byte_identical(self, tmp_path):
        from repro.persist.checkpoint import load_checkpoint, save_checkpoint

        events = _mixed_events(3000, 300, seed=31)
        straight = StreamingGraphClusterer(self._config())
        for start in range(0, len(events), 512):
            straight.apply_many(events[start : start + 512])

        resumed = StreamingGraphClusterer(self._config())
        for start in range(0, 1536, 512):
            resumed.apply_many(events[start : start + 512])
        path = tmp_path / "mid.ckpt"
        save_checkpoint(resumed, path, position=1536)
        checkpoint = load_checkpoint(path)
        assert checkpoint.position == 1536
        restored = checkpoint.clusterer
        assert isinstance(restored._reservoir, NumpyPackedEdgeReservoir)
        for start in range(1536, len(events), 512):
            restored.apply_many(events[start : start + 512])

        assert restored.snapshot() == straight.snapshot()
        assert pickle.dumps(restored.get_state()) == pickle.dumps(
            straight.get_state()
        )

    # The state bytes must not depend on when stats are read or a
    # checkpoint is taken. An insert-only stream whose sample keeps
    # evicting merges and splits components all along.
    def _insert_only_run(self, events, batches):
        clusterer = StreamingGraphClusterer(self._config(reservoir_capacity=150))
        for start in range(0, len(events), 512):
            clusterer.apply_many(events[start : start + 512])
            batches(clusterer)
        return clusterer

    def test_resume_at_batch_boundary_keeps_state_bytes(self, tmp_path):
        from repro.persist.checkpoint import load_checkpoint, save_checkpoint

        events = _mixed_events(6000, 400, seed=43, delete_rate=0.0)
        straight = self._insert_only_run(events, lambda c: None)
        head = StreamingGraphClusterer(self._config(reservoir_capacity=150))
        for start in range(0, 3072, 512):
            head.apply_many(events[start : start + 512])
        path = tmp_path / "boundary.ckpt"
        save_checkpoint(head, path, position=3072)
        restored = load_checkpoint(path).clusterer
        for start in range(3072, len(events), 512):
            restored.apply_many(events[start : start + 512])
        assert restored.stats.evictions > 0
        assert pickle.dumps(restored.get_state()) == pickle.dumps(
            straight.get_state()
        )

    def test_reading_stats_keeps_state_bytes(self):
        events = _mixed_events(6000, 400, seed=43, delete_rate=0.0)
        quiet = self._insert_only_run(events, lambda c: None)
        probe = events[0][1]
        # Reading the stats, or the clusters (which catches the labels
        # up with the sample), after every batch.
        for read in (
            lambda c: c.stats.component_splits,
            lambda c: c.cluster_members(probe),
        ):
            reads = []
            eager = self._insert_only_run(events, lambda c: reads.append(read(c)))
            assert len(reads) == 12
            assert pickle.dumps(eager.get_state()) == pickle.dumps(quiet.get_state())

    def test_checkpoint_file_roundtrip_byte_identical(self, tmp_path):
        from repro.persist.checkpoint import load_checkpoint, save_checkpoint

        events = _mixed_events(1500, 200, seed=37)
        clusterer = StreamingGraphClusterer(self._config())
        clusterer.apply_many(events)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(clusterer, first, position=len(events))
        restored = load_checkpoint(first).clusterer
        save_checkpoint(restored, second, position=len(events))
        assert first.read_bytes() == second.read_bytes()

    def test_scalar_state_refused_by_numpy_reservoir(self):
        scalar = PackedEdgeReservoir(8, seed=1)
        scalar.update_many(list(range(20)))
        with pytest.raises(ValueError, match="np_rng_state"):
            NumpyPackedEdgeReservoir.from_state(scalar.get_state())


# ----------------------------------------------------------------------
# Deletions and vertex additions stay in the kernel
# ----------------------------------------------------------------------
def _with_vertex_adds(events, num_vertices, seed):
    """``events`` with an ADD_VERTEX before about 2% of them: mostly of
    vertices the stream also joins, some of vertices it never mentions."""
    rng = random.Random(seed)
    out = []
    for event in events:
        if rng.random() < 0.02:
            out.append((ADDV, rng.randrange(num_vertices + 50), None))
        out.append(event)
    return out


def _columns(batch, arrays):
    kinds = [kind for kind, _, _ in batch]
    us = [u for _, u, _ in batch]
    vs = [v for _, _, v in batch]
    if not arrays:
        return EventColumns(us=us, vs=vs, kinds=kinds)
    return EventColumns(
        us=np.array(us, dtype=np.int64),
        vs=np.array(vs, dtype=np.int64),
        kinds=np.array([EVENT_KINDS.index(kind) for kind in kinds], dtype=np.int8),
    )


def _feed(clusterer, events, form, batch=256):
    for start in range(0, len(events), batch):
        chunk = events[start : start + batch]
        if form == "tuples":
            clusterer.apply_many(chunk)
        elif form == "list_columns":
            clusterer.apply_many(_columns(chunk, arrays=False))
        else:
            clusterer.apply_many(_columns(chunk, arrays=True))
    return clusterer


class TestKernelDeletions:
    def _config(self, **overrides):
        settings = dict(
            reservoir_capacity=80, seed=19, kernel="numpy", strict=False
        )
        settings.update(overrides)
        return ClustererConfig(**settings)

    @pytest.mark.parametrize("form", ["tuples", "list_columns", "array_columns"])
    def test_no_fallback(self, form):
        events = _mixed_events(3000, 250, seed=47, delete_rate=0.3)
        if form in ("tuples", "list_columns"):
            events = _with_vertex_adds(events, 250, seed=47)
        clusterer = _feed(StreamingGraphClusterer(self._config()), events, form)
        stats = clusterer.stats
        assert clusterer.kernel_fallback_events == 0
        assert clusterer.kernel_events == stats.events == len(events)
        assert stats.sample_deletions > 0
        if form in ("tuples", "list_columns"):
            assert stats.vertex_adds > 0

    @pytest.mark.parametrize("kernel", ["scalar", "numpy"])
    @pytest.mark.parametrize("form", ["tuples", "edge_events_among_tuples", "list_columns"])
    def test_vertex_events_split_a_batch_into_array_segments(self, kernel, form):
        """Vertex events split one long batch into segments, and each
        long segment still interns as arrays: every label lands in the
        kernel's dense label cache, which the plain-Python steps never
        fill. On scalar the result equals per-event processing; on numpy,
        whose batched draws differ, the partition is the sample's
        components."""
        events = (
            [(ADD, i, i + 1) for i in range(100)]
            + [(EventKind.DELETE_VERTEX, 3, None)]
            + [(ADD, i, i + 1) for i in range(200, 300)]
            + [(ADDV, 999, None)]
            + [(ADD, i, i + 1) for i in range(400, 500)]
        )
        if form == "list_columns":
            batch = _columns(events, arrays=False)
        elif form == "edge_events_among_tuples":
            batch = [EdgeEvent(*e) if i % 3 == 0 else e for i, e in enumerate(events)]
        else:
            batch = events
        config = self._config(kernel=kernel)
        clusterer = StreamingGraphClusterer(config)
        clusterer.apply_many(batch)
        label_map = clusterer._kernel._label_map
        for label in clusterer.interner.labels():
            assert label == 999 or label_map[label] >= 0, label
        assert clusterer.kernel_fallback_events == 1
        assert clusterer.snapshot() == _from_scratch(clusterer)
        if kernel == "scalar":
            reference = StreamingGraphClusterer(config)
            for event in events:
                reference.apply(EdgeEvent(*event))
            assert pickle.dumps(clusterer.get_state()) == pickle.dumps(reference.get_state())

    @pytest.mark.parametrize("kernel", ["scalar", "numpy"])
    def test_dropped_clusterer_is_freed_without_the_cycle_collector(self, kernel):
        """The batch kernel must not keep its clusterer alive: a dropped
        clusterer is freed at once, not at the next cyclic collection."""
        import gc
        import weakref

        clusterer = StreamingGraphClusterer(self._config(kernel=kernel))
        clusterer.apply_many(_mixed_events(300, 40, seed=3))
        ref = weakref.ref(clusterer)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del clusterer
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("kernel", ["scalar", "numpy"])
    def test_unhashable_label_raises_after_its_prefix(self, kernel):
        """A label that cannot be interned raises after the events before
        it are applied completely, as on the per-event path."""
        clusterer = StreamingGraphClusterer(self._config(kernel=kernel))
        with pytest.raises(TypeError):
            clusterer.apply_many([(ADD, 1, 2), (ADD, 3, 4), (ADD, [5], 6), (ADD, 7, 8)])
        assert clusterer.stats.events == clusterer.stats.admissions == 2
        assert sorted(clusterer.reservoir_edges()) == [(1, 2), (3, 4)]
        assert sorted(clusterer.vertices()) == [1, 2, 3, 4]

    @pytest.mark.parametrize("track_graph", [False, True])
    def test_tuples_and_columns_byte_identical(self, track_graph):
        edges = _mixed_events(3000, 250, seed=53, delete_rate=0.3)
        with_vertices = _with_vertex_adds(edges, 250, seed=53)
        for events, forms in (
            (edges, ["tuples", "list_columns", "array_columns"]),
            (with_vertices, ["tuples", "list_columns"]),
        ):
            states = {
                form: pickle.dumps(
                    _feed(
                        StreamingGraphClusterer(
                            self._config(track_graph=track_graph)
                        ),
                        events,
                        form,
                    ).get_state()
                )
                for form in forms
            }
            assert len(set(states.values())) == 1, sorted(states)

    _ERROR_CASES = {
        # name: (config overrides, events, error type, message)
        "strict_absent_delete": (
            dict(strict=True),
            [(ADD, 1, 2), (ADD, 3, 4), (DEL, 6, 5), (ADD, 7, 8)],
            StreamError,
            "DELETE_EDGE of absent edge (5, 6)",
        ),
        "self_loop_delete": (
            dict(),
            [(ADD, 1, 2), (DEL, 2, 1), (ADD, 3, 4), (DEL, 5, 5), (ADD, 6, 7)],
            ValueError,
            "self-loop edges are not allowed: (5, 5)",
        ),
        "empty_population": (
            dict(track_graph=False),
            [(ADD, 1, 2), (DEL, 1, 2), (DEL, 3, 4), (ADD, 5, 6)],
            ValueError,
            "delete from an empty population",
        ),
    }

    @pytest.mark.parametrize("form", ["tuples", "list_columns", "array_columns"])
    @pytest.mark.parametrize("case", sorted(_ERROR_CASES))
    def test_errors_match_per_event_path(self, case, form):
        overrides, events, error_type, message = self._ERROR_CASES[case]
        config = self._config(**overrides)
        per_event = StreamingGraphClusterer(config)
        with pytest.raises(error_type) as expected:
            for event in events:
                per_event.apply(EdgeEvent(*event))
        batched = StreamingGraphClusterer(config)
        with pytest.raises(error_type) as got:
            _feed(batched, events, form)
        assert str(got.value) == str(expected.value) == message
        assert batched.kernel_fallback_events == 0

        def observable(clusterer):
            stats = clusterer.stats.as_dict()
            # Counted on the per-event path only (statistics contract).
            del stats["component_merges"], stats["component_splits"]
            graph = clusterer.graph
            return (
                stats,
                sorted(clusterer.reservoir_edges()),
                sorted(clusterer.vertices()),
                None if graph is None else sorted(graph.edge_list()),
                clusterer.snapshot(),
            )

        assert observable(batched) == observable(per_event)
        # Nothing the failing event did not reach stays interned.
        assert batched.interner.labels() == per_event.interner.labels()

    @pytest.mark.parametrize("form", ["tuples", "list_columns", "array_columns"])
    @pytest.mark.parametrize("case", sorted(_ERROR_CASES))
    def test_scalar_errors_match_per_event_path(self, case, form):
        """The scalar kernel stops where the per-event path stops, with
        every counter and the intern table equal, byte for byte."""
        overrides, events, error_type, message = self._ERROR_CASES[case]
        config = self._config(kernel="scalar", **overrides)
        per_event = StreamingGraphClusterer(config)
        with pytest.raises(error_type) as expected:
            for event in events:
                per_event.apply(EdgeEvent(*event))
        batched = StreamingGraphClusterer(config)
        with pytest.raises(error_type) as got:
            _feed(batched, events, form)
        assert str(got.value) == str(expected.value) == message
        assert batched.interner.labels() == per_event.interner.labels()
        assert pickle.dumps(batched.get_state()) == pickle.dumps(per_event.get_state())
        assert batched.snapshot() == per_event.snapshot()


# ----------------------------------------------------------------------
# Reads catch the labels up with the sample
# ----------------------------------------------------------------------
def _from_scratch(clusterer):
    """The components of the sample over the vertex set, recomputed."""
    from repro.connectivity.union_find import UnionFind
    from repro.quality import Partition

    union = UnionFind(clusterer.vertices())
    for u, v in clusterer.reservoir_edges():
        union.union(u, v)
    return Partition.from_clusters(union.groups())


class TestLabelCatchUp:
    @pytest.fixture
    def rebuilds(self, monkeypatch):
        """Counts ``ComponentLabels.rebuild`` calls."""
        from repro.connectivity.labels import ComponentLabels

        calls = []
        rebuild = ComponentLabels.rebuild

        def counting(labels, edges):
            calls.append(None)
            rebuild(labels, edges)

        monkeypatch.setattr(ComponentLabels, "rebuild", counting)
        return calls

    def _warm(self, events):
        """A numpy clusterer whose 200-edge reservoir saw 8192 events,
        so it admits about one edge in 40 from then on."""
        clusterer = StreamingGraphClusterer(
            ClustererConfig(
                reservoir_capacity=200, seed=67, kernel="numpy", strict=False
            )
        )
        clusterer.apply_many(events[:8192])
        return clusterer

    def test_rare_changes_are_replayed_not_rebuilt(self, rebuilds):
        events = _mixed_events(12032, 1000, seed=61, delete_rate=0.1)
        clusterer = self._warm(events)
        assert clusterer.reservoir_size == 200
        probe = events[0][1]
        clusterer.cluster_members(probe)
        assert len(rebuilds) == 1  # the warm-up overflowed the log
        before = clusterer.stats.as_dict()
        for start in range(8192, len(events), 64):
            clusterer.apply_many(events[start : start + 64])
            clusterer.cluster_members(probe)
        stats = clusterer.stats.as_dict()
        assert stats["admissions"] - before["admissions"] > 20
        assert stats["sample_deletions"] > before["sample_deletions"]
        assert len(rebuilds) == 1
        assert clusterer.snapshot() == _from_scratch(clusterer)

    def test_change_past_a_quarter_of_the_sample_rebuilds_once(self, rebuilds):
        events = _mixed_events(8192, 1000, seed=71, delete_rate=0.1)
        clusterer = self._warm(events)
        probe = events[0][1]
        clusterer.cluster_members(probe)
        assert clusterer.reservoir_size == 200
        # 60 of the 200 sampled edges leave: the log overflows at the 41st.
        clusterer.apply_many(
            [(DEL, u, v) for u, v in clusterer.reservoir_edges()[:60]]
            + [(ADD, 5000 + i, 5001 + i) for i in range(20)]
        )
        assert len(rebuilds) == 1
        clusterer.cluster_members(probe)
        assert len(rebuilds) == 2
        assert clusterer.snapshot() == _from_scratch(clusterer)
        clusterer.cluster_members(probe)
        assert len(rebuilds) == 2

    def test_log_follows_event_order(self):
        """In lean mode a key can leave, come back and leave again in
        one run. ``k`` joined since the last read; then a run evicts it
        for ``a``, evicts ``b`` for it, and evicts it again for ``c``."""
        events = _mixed_events(400, 100, seed=73, delete_rate=0.0)
        clusterer = self._warm(events)
        clusterer.snapshot()  # catch up
        kernel = clusterer._kernel
        a, b, c, k = 1 << 40, 2 << 40, 3 << 40, 4 << 40
        kernel._fresh[k] = None
        kernel._take([(k, a), (b, k), (k, c)])
        assert list(kernel._fresh) == [a, c]
        assert list(kernel._stale) == [b]


# ----------------------------------------------------------------------
# from_state id-range validation (interner table bound)
# ----------------------------------------------------------------------
class TestFromStateIdLimit:
    def _state_with_keys(self, keys, capacity=8):
        reservoir = PackedEdgeReservoir(capacity, seed=5)
        reservoir.update_many(list(keys))
        return reservoir.get_state()

    def test_accepts_in_range(self):
        keys = [(1 << 32) | 2, (3 << 32) | 4]
        state = self._state_with_keys(keys)
        restored = PackedEdgeReservoir.from_state(state, id_limit=5)
        assert sorted(restored) == sorted(keys)

    def test_rejects_endpoint_beyond_interner(self):
        state = self._state_with_keys([(1 << 32) | 7])
        with pytest.raises(ValueError, match="intern table"):
            PackedEdgeReservoir.from_state(state, id_limit=7)

    def test_numpy_subclass_inherits_validation(self):
        reservoir = NumpyPackedEdgeReservoir(8, seed=5)
        reservoir.insert_many(np.array([(9 << 32) | 1], dtype=np.uint64))
        with pytest.raises(ValueError, match="intern table"):
            NumpyPackedEdgeReservoir.from_state(
                reservoir.get_state(), id_limit=9
            )
