"""Vectorized (numpy) primitives for the packed-int sampling hot path.

PR 5 put the reservoir into an ``array('Q')`` of packed ``(u32, u32)``
edge keys — a numpy-shaped representation that was still driven one
event at a time. This module supplies the array-at-a-time pieces the
``--kernel numpy`` batch kernel (:mod:`repro.core.batchkernel`) is built
from:

* :class:`NumpyPackedEdgeReservoir` — a :class:`PackedEdgeReservoir`
  whose random draws come from a ``numpy.random.Generator`` (PCG64) so
  that :meth:`~NumpyPackedEdgeReservoir.insert_many` can draw a run's
  admissions per candidate, as arrays, instead of once per insert.
* :func:`shard_ids` — splitmix64 shard routing over id arrays,
  bit-for-bit equal to ``repro.core.sharded._shard_of`` for int
  vertices (property-tested).
* :func:`edge_components` — connected components of a packed-key edge
  array via min-label propagation. The kernel no longer calls it (it
  kept batch-granular merge/split estimates until those were dropped);
  it stays as a tested primitive whose name the served-stream
  benchmark's tracer patches.

Determinism contract
--------------------
The scalar kernel replays the Mersenne-Twister stream draw for draw, so
any batch split of a stream is *bit-identical* to per-event processing.
The numpy kernel deliberately trades that for throughput: each run of
additions draws its candidates at its own first admission rate, so how
the PCG64 bitstream is consumed depends on where runs start and end.
Two numpy runs agree bit-for-bit only when fed the same stream in the
same batch sizes (which the CLI and checkpoint resume guarantee), and
agree with the scalar kernel *in distribution* (exact under scripted
draws, chi-square-tested under real ones, in
``tests/test_vectorized.py``).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from repro.sampling.random_pairing import PackedEdgeReservoir

__all__ = [
    "NumpyPackedEdgeReservoir",
    "edge_components",
    "shard_ids",
]

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# splitmix64 constants, shared with repro.core.sharded._combine_keys.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)

_NO_POSITIONS = np.empty(0, dtype=np.intp)


def shard_ids(key_u: np.ndarray, key_v: np.ndarray, num_shards: int) -> np.ndarray:
    """Vectorized ``sharded._shard_of`` for integer vertex keys.

    ``key_u``/``key_v`` are the *canonical-order* endpoint keys (ints
    key as themselves, exactly like ``_stable_vertex_key``); values are
    taken mod 2**64, which is what the scalar code's ``& _MASK64``
    does. Bit-for-bit equality with the scalar routing is asserted by
    ``tests/test_vectorized.py::test_shard_ids_matches_scalar``.
    """
    with np.errstate(over="ignore"):
        ku = np.asarray(key_u, dtype=np.int64).view(np.uint64)
        kv = np.asarray(key_v, dtype=np.int64).view(np.uint64)
        x = ku * _SM64_GAMMA + kv * _SM64_MIX1
        x = (x ^ (x >> np.uint64(30))) * _SM64_MIX1
        x = (x ^ (x >> np.uint64(27))) * _SM64_MIX2
        x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(num_shards)).astype(np.int64)


def edge_components(
    keys: np.ndarray,
) -> Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
    """Connected components of a packed-key edge set.

    Returns ``(num_components, vertices, labels)`` where ``vertices``
    is the sorted array of distinct endpoint ids and ``labels[i]`` is a
    component label for ``vertices[i]`` (the minimum compressed index
    reachable — stable for a given edge set). Empty input returns
    ``(0, None, None)``.

    Uses min-label propagation with pointer jumping: O(E) numpy work
    per round, O(log V) rounds on typical sampled subgraphs.
    """
    if keys.size == 0:
        return 0, None, None
    endpoints = np.empty(keys.size * 2, dtype=np.uint64)
    endpoints[0::2] = keys >> _SHIFT32
    endpoints[1::2] = keys & _MASK32
    vertices, inverse = np.unique(endpoints, return_inverse=True)
    eu = inverse[0::2]
    ev = inverse[1::2]
    labels = np.arange(vertices.size, dtype=np.int64)
    # Paranoia bound: min-label propagation converges in <= V rounds even
    # on a path graph; pointer jumping makes typical inputs O(log V).
    for _ in range(vertices.size + 1):
        before = labels.copy()
        np.minimum.at(labels, eu, labels[ev])
        np.minimum.at(labels, ev, labels[eu])
        labels = np.minimum(labels, labels[labels])
        if np.array_equal(labels, before):
            break
    return int(np.unique(labels).size), vertices, labels


def _steady_admissions(gen, run: int, capacity: int, base: int) -> np.ndarray:
    """Positions in ``range(run)``, ascending, of the inserts that
    steady-state Algorithm R admits when the first sees population
    ``base`` (``base > capacity``).

    Insert ``k`` is admitted with probability ``capacity/(base + k)``,
    independently of the others. Candidates are drawn at the highest of
    these rates, ``q = capacity/base``, and candidate ``k`` is kept with
    probability ``base/(base + k)``: admitted with probability
    ``q * base/(base + k)``, the same law. Like Vitter's reservoir
    algorithms (1985), this skips the rejected inserts instead of
    drawing for each; thinning keeps the skip distribution fixed over
    the run. The gaps between candidates are geometric, drawn by
    inversion: ``floor(log(1 - u) / log(1 - q))`` inserts pass over
    before the next, ``u`` uniform on [0, 1). The first gap is one
    scalar draw, so a run without a candidate costs that draw; the rest
    come in blocks of the candidates the run has left (mean plus four
    standard deviations), drawn only while an insert follows the last
    candidate, and a block that ends inside the run is followed by
    another. Draws and array work are O(candidates), not O(run).
    """
    rate = capacity / base
    log_miss = math.log1p(-rate)
    last = math.floor(math.log(1.0 - gen.random()) / log_miss)
    if last >= run:
        return _NO_POSITIONS
    found = [(last,)]
    while last < run - 1:
        left = (run - 1 - last) * rate
        size = int(left + 4.0 * math.sqrt(left)) + 1
        steps = np.floor(np.log(1.0 - gen.random(size)) / log_miss) + 1.0
        steps[0] += last
        ends = steps.cumsum()
        inside = ends[ends < run]
        found.append(inside)
        if inside.size < size:
            break
        last = float(ends[-1])
    candidates = np.concatenate(found)
    keep = gen.random(candidates.size) * (base + candidates) < base
    return candidates[keep].astype(np.intp)


class NumpyPackedEdgeReservoir(PackedEdgeReservoir):
    """Packed-edge random-pairing reservoir driven by a PCG64 generator.

    Storage, counters, and the random-pairing *logic* are exactly the
    base class's; its draws instead come from a
    ``numpy.random.Generator``, through :meth:`insert_many`, so a whole
    run of steady-state Algorithm R accept/evict decisions is drawn as
    arrays, per candidate rather than per insert. :meth:`insert` is a
    one-key ``insert_many``; the base class's :meth:`update_many`, which
    draws from the Mersenne Twister, is not used on this class.

    ``get_state`` additionally records the PCG64 bitstream state under
    ``"np_rng_state"``; the inherited MT state is carried along unused
    so a state dict stays loadable by the scalar class.
    """

    __slots__ = ("_gen",)

    def __init__(self, capacity: int, seed: int | None = 0) -> None:
        super().__init__(capacity, seed=seed)
        self._gen = np.random.default_rng(seed)

    def insert(self, item: int) -> bool:
        """Account for one insertion; True if ``item`` entered the sample."""
        return bool(self.insert_many(np.array([item], dtype=np.uint64)))

    def insert_many(
        self,
        keys: np.ndarray,
        changes: Optional[list] = None,
        veto: Optional[Callable[[int, int, list], bool]] = None,
    ) -> list:
        """Account for a run of insertions; returns the sample changes.

        ``keys`` is a uint64 array of packed edge keys, in stream
        order. The random-pairing phases are walked exactly as the
        scalar code would — pairing drains pending deletions item by
        item, free slots fill, and only the steady-state stretch (the
        hot case: an insert-heavy stream with a full reservoir) draws
        its decisions as arrays: candidates at the stretch's highest
        admission rate, thinned to each insert's own rate
        (:func:`_steady_admissions`), then one victim per admission.
        A victim's slot is overwritten in place where the scalar code
        swap-removes it and appends: the same uniform victim choice with
        one move (slot order is an internal detail that round-trips via
        ``get_state`` either way).

        The changes are appended to ``changes`` (or a fresh list) in
        event order as ``(gone, came)`` pairs of plain ints, None for no
        key, so a caller that passes its own list still sees the partial
        outcome if a duplicate sample key raises mid-run. ``veto`` is
        :meth:`update_many`'s hook, asked with ``i`` a position in
        ``keys`` after the admission's draws (in the steady state, after
        the whole run's) and before its eviction and duplicate check. A
        vetoed steady-state admission leaves its victim draw unused.
        """
        gen = self._gen
        capacity = self._capacity
        slots = self._slots
        slot_of = self._slot_of
        n = int(keys.size)
        if changes is None:
            changes = []
        i = 0
        # Phase 1: pairing — drain uncompensated deletions one draw at a
        # time (rare after a deletion burst; bounded by pending count).
        while i < n and (self._c_bad + self._c_good) > 0:
            self._population += 1
            key = int(keys[i])
            if int(gen.integers(self._c_bad + self._c_good)) < self._c_bad:
                self._c_bad -= 1
                if veto is None or not veto(i, key, changes):
                    self._add(key)
                    changes.append((None, key))
            else:
                self._c_good -= 1
            i += 1
        # Phase 2: free slots fill unconditionally.
        while i < n and len(slots) < capacity:
            self._population += 1
            key = int(keys[i])
            if veto is None or not veto(i, key, changes):
                self._add(key)
                changes.append((None, key))
            i += 1
        # Phase 3: steady state — Algorithm R over the rest of the run,
        # drawn per candidate (see _steady_admissions).
        m = n - i
        if m > 0:
            base = self._population + 1
            self._population += m
            admitted = _steady_admissions(gen, m, capacity, base)
            if admitted.size:
                victims = gen.integers(0, capacity, size=admitted.size)
                came = keys[i:][admitted].tolist()
                for pos, key, victim in zip(
                    admitted.tolist(), came, victims.tolist()
                ):
                    if veto is not None and veto(i + pos, key, changes):
                        continue
                    if key in slot_of:
                        raise ValueError(f"duplicate sample item {key!r}")
                    old = slots[victim]
                    del slot_of[old]
                    slots[victim] = key
                    slot_of[key] = victim
                    changes.append((old, key))
        return changes

    # -- persistence ---------------------------------------------------
    def get_state(self) -> dict:
        state = super().get_state()
        state["np_rng_state"] = self._gen.bit_generator.state
        return state

    @classmethod
    def from_state(cls, state: dict, *, id_limit: int | None = None):
        if "np_rng_state" not in state:
            raise ValueError(
                "corrupt sampler state: missing np_rng_state (this "
                "checkpoint was not written by the numpy kernel)"
            )
        sampler = super().from_state(state, id_limit=id_limit)
        sampler._gen.bit_generator.state = state["np_rng_state"]
        return sampler
