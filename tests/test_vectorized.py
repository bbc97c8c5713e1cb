"""Tests for the numpy batch kernel and its vectorized primitives.

Covers the three contracts ``--kernel numpy`` makes:

* the vectorized shard routing is *bit-for-bit* the scalar routing;
* the kernel is deterministic and checkpoint-exact (byte-identical
  round trips, including a mid-stream save/restore);
* the sample it draws is *distribution-equivalent* to the scalar
  kernel's: under scripted draws its admissions equal a per-insert
  reference of the thinning rule it draws by, and under real RNGs its
  admission counts are chi-square-indistinguishable from the law and
  from the scalar kernel's — the kernel trades bitstream compatibility
  for throughput, never correctness.
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
# The numpy reservoir's draws, scripted
# ----------------------------------------------------------------------
class _ScriptedGenerator:
    """Stands in for the numpy reservoir's PCG64 Generator and logs every
    answer as ``(method, size, values)``. ``random`` answers from a tape
    of uniforms: seeded, every seventh exactly 0.0 (a gap of no insert,
    or a sure keep) and a burst of 0.0 at tape positions 130-399 (a run
    of adjacent candidates, more than one block of gaps holds);
    ``integers`` counts through its range."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._drawn = 0
        self._counter = 0
        self.log = []

    def _uniform(self):
        self._drawn += 1
        if self._drawn % 7 == 0 or 130 <= self._drawn < 400:
            return 0.0
        return self._rng.random()

    def random(self, size=None):
        values = [self._uniform() for _ in range(1 if size is None else size)]
        self.log.append(("random", size, values))
        return values[0] if size is None else np.array(values)

    def integers(self, low, high=None, size=None):
        if high is None:
            low, high = 0, low
        values = []
        for _ in range(1 if size is None else size):
            values.append(low + self._counter % (high - low))
            self._counter += 1
        self.log.append(("integers", size, values))
        return values[0] if size is None else np.array(values, dtype=np.int64)


def _reference_run(log, keys, capacity, items, population, c_bad, c_good):
    """One ``insert_many`` run decided one insert at a time from the
    draws it logged; returns ``(changes, items, population, c_bad,
    c_good)`` after the run.

    Pairing inserts take the scalar ``integers`` draws in order. In the
    steady state insert ``k`` (``k = 1, 2, ...``) sees population
    ``P + k``: it is a candidate when the geometric gaps (rate
    ``q = capacity/(P + 1)``, ``floor(log(1 - u) / log(1 - q))`` inserts
    passed over) drawn from the ``random`` answers land on it, and a
    candidate is kept iff ``u * (P + k) < P + 1`` for the next keep draw
    ``u``; a kept one overwrites the slot of the next victim draw. A gap
    is drawn at the first steady insert and at each one after a
    candidate, so a run that ends on a candidate draws no further gap.
    The keep draws are the run's last ``random`` call when it has more
    than one, every earlier answer a gap draw.
    """
    pairing = iter([v[0] for m, size, v in log if m == "integers" and size is None])
    victims = iter([x for m, size, v in log if m == "integers" and size for x in v])
    calls = [v for m, _, v in log if m == "random"]
    gap_calls = calls[:-1] or calls
    gaps = [u for call in gap_calls for u in call]
    keeps = iter(calls[-1] if len(calls) > 1 else [])
    items = list(items)
    changes = []
    skip = steady = None
    used = 0
    for key in keys.tolist():
        population += 1
        if c_bad + c_good:
            if next(pairing) < c_bad:
                c_bad -= 1
                items.append(key)
                changes.append((None, key))
            else:
                c_good -= 1
        elif len(items) < capacity:
            items.append(key)
            changes.append((None, key))
        else:
            if steady is None:
                steady = population  # P + 1
                log_miss = math.log1p(-capacity / steady)
            if skip is None:
                skip = math.floor(math.log(1.0 - gaps[used]) / log_miss)
                used += 1
            if skip:
                skip -= 1
                continue
            skip = None
            if next(keeps) * population < steady:
                victim = next(victims)
                changes.append((items[victim], key))
                items[victim] = key
    # Exactly one keep draw per candidate and one victim per admission,
    # and no gap call the run did not need: the last one's first answer
    # is used.
    assert next(keeps, None) is None and next(victims, None) is None
    assert not gap_calls or used > len(gaps) - len(gap_calls[-1])
    assert next(pairing, None) is None
    return changes, items, population, c_bad, c_good


class TestInjectedRngEquivalence:
    def test_admissions_follow_the_thinning_rule(self):
        # Every run's changes, slots and counters must equal the
        # per-insert reference over the draws the run logged: runs of
        # 1 to 2,000 inserts, the rate falling from 8/61 to 8/2,600,
        # and one run that starts by pairing pending deletions.
        capacity = 8
        keys = np.arange(3000, dtype=np.uint64) + (1 << 32)
        reservoir = NumpyPackedEdgeReservoir(capacity, seed=4)
        reservoir.insert_many(keys[:60])
        scripted = _ScriptedGenerator(seed=12)
        reservoir._gen = scripted
        position, steady_admissions, blocks = 60, 0, []
        for run in (1, 7, 1, 40, "delete", 512, 7, 2000, 1):
            if run == "delete":
                for key in reservoir.items()[:3] + keys[:2].tolist():
                    reservoir.delete(key)
                continue
            before = (
                list(reservoir._slots),
                reservoir._population,
                reservoir._c_bad,
                reservoir._c_good,
            )
            scripted.log.clear()
            run_keys = keys[position : position + run]
            position += run
            changes = reservoir.insert_many(run_keys)
            expected = _reference_run(scripted.log, run_keys, capacity, *before)
            assert changes == expected[0]
            assert list(reservoir._slots) == expected[1]
            assert reservoir._slot_of == {k: s for s, k in enumerate(expected[1])}
            assert (
                reservoir._population,
                reservoir._c_bad,
                reservoir._c_good,
            ) == expected[2:]
            steady_admissions += sum(gone is not None for gone, _ in changes)
            blocks.append(sum(1 for m, size, _ in scripted.log if m == "random"))
        assert steady_admissions > 20
        # Some run found no candidate (one draw), and one needed a second
        # block of gaps (scalar, two blocks, keeps).
        assert min(blocks) == 1 and max(blocks) >= 4

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

    def test_low_rate_admission_chi_square(self):
        # The regime the served frames run in, where a run's candidates
        # are a small share of its inserts: a 10-edge sample of 2,048
        # distinct inserts, the rate falling to 10/2,048, fed in runs of
        # 1, 7, 512 and 2,048 (250 seeds each) and, for the scalar
        # kernel, one insert at a time (500 seeds). Insert t (population
        # t) is admitted with probability 10/t, independently of the
        # others, so each bucket of positions has a known mean and
        # variance per stream. Goodness of fit for the numpy streams
        # pooled, and homogeneity against the scalar kernel, both at
        # the 0.999 point over 14 buckets of a geometric width (critical
        # value 36.3). Off-by-ones in the keep probability fail both:
        # keeping candidate k iff u * (base + k + 1) < base, or
        # u * (base + k) < base - 1, or u * (base + k - 1) < base - 1
        # read a fit of 168, 358 and 102 and a homogeneity of 65, 134
        # and 55, where the rule as written reads 7.9 and 18.8.
        capacity, inserts = 10, 2048
        keys = np.arange(inserts, dtype=np.uint64) + (1 << 32)
        edges = [capacity]
        while edges[-1] < inserts:
            edges.append(min(inserts, max(edges[-1] + 1, round(edges[-1] * 1.5))))
        population = np.arange(1, inserts + 1, dtype=np.float64)
        p = np.minimum(1.0, capacity / population)
        mean = np.add.reduceat(p, edges[:-1])
        var = np.add.reduceat(p * (1.0 - p), edges[:-1])

        def bucket_counts(admitted):
            counts = np.bincount(admitted, minlength=inserts).astype(np.float64)
            assert counts[:capacity].tolist() == [1.0] * capacity
            return np.add.reduceat(counts, edges[:-1])

        numpy_counts, numpy_runs = 0.0, 0
        for index, run in enumerate((1, 7, 512, 2048)):
            for seed in range(250 * index, 250 * (index + 1)):
                reservoir = NumpyPackedEdgeReservoir(capacity, seed=seed)
                changes = []
                for start in range(0, inserts, run):
                    reservoir.insert_many(keys[start : start + run], changes)
                came = np.array([key for _, key in changes], dtype=np.uint64)
                numpy_counts = numpy_counts + bucket_counts(
                    (came - keys[0]).astype(np.int64)
                )
                numpy_runs += 1
        scalar_counts, scalar_runs = 0.0, 0
        first = int(keys[0])
        for seed in range(5000, 5500):
            reservoir = PackedEdgeReservoir(capacity, seed=seed)
            changes, _, _ = reservoir.update_many(keys.tolist())
            scalar_counts = scalar_counts + bucket_counts(
                np.array([key - first for _, key in changes], dtype=np.int64)
            )
            scalar_runs += 1

        dof = len(mean)
        gof = float(
            np.sum((numpy_counts - numpy_runs * mean) ** 2 / (numpy_runs * var))
        )
        assert gof < _chi2_critical(dof), (
            f"numpy low-rate admissions do not fit 10/t: chi2={gof:.1f}"
        )
        spread = var * (1.0 / numpy_runs + 1.0 / scalar_runs)
        homogeneity = float(
            np.sum(
                (numpy_counts / numpy_runs - scalar_counts / scalar_runs) ** 2
                / spread
            )
        )
        assert homogeneity < _chi2_critical(dof), (
            f"scalar/numpy low-rate admissions differ: chi2={homogeneity:.1f}"
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
