"""Random pairing — bounded-size reservoir under insertions *and* deletions.

Random pairing (Gemulla, Lehner, Haas; VLDB 2006) maintains a uniform
sample of the *current* population of a fully-dynamic stream without
ever consulting the population itself. It is the deletion-capable
reservoir the paper's graph reservoir sampling is built on.

Idea: a deletion is not compensated immediately. Instead two counters
record *uncompensated* deletions — ``c_bad`` for deletions that hit the
sample and ``c_good`` for deletions that missed it. A subsequent
insertion is *paired* with one of the uncompensated deletions: with
probability ``c_bad / (c_bad + c_good)`` the new item takes a vacated
sample slot (and ``c_bad`` decrements), otherwise it is skipped (and
``c_good`` decrements). When no deletions are pending the classic
Algorithm R step applies against the current population size.

Storage layout
--------------
The sample lives in a flat slot list plus an item→slot index dict, so
membership, admission, and eviction are all O(1) with no per-admission
allocation: eviction swap-removes the victim's slot and appends the
newcomer. Slot *order* is part of the observable state (the eviction
victim is picked by slot index), so it round-trips through
:meth:`get_state` exactly.

Admission
---------
:meth:`RandomPairingReservoir.update_many` is the one admission step: it
walks a batch of insertions and deletions in event order and returns the
sample changes. The streaming clusterer must be able to *veto* an
admission (constraint policies may forbid the merge an edge would
cause), so ``update_many`` takes a hook that it asks after an
admission's draws and before its eviction:

>>> rp = RandomPairingReservoir(2, seed=1)
>>> rp.update_many(["a", "b", "c"], veto=lambda i, item, changes: item == "b")
([(None, 'a'), (None, 'c')], 3, None)
>>> rp.items(), rp.population
(['a', 'c'], 3)

The draws of a vetoed admission stay spent (its pairing slot is
consumed too), so uniformity is preserved exactly in the unconstrained
case and degrades only by the vetoes the caller actually issues.
:meth:`~RandomPairingReservoir.insert` is a one-item ``update_many``.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.util.rng import make_rng
from repro.util.validation import check_positive

__all__ = [
    "PackedEdgeReservoir",
    "RandomPairingReservoir",
]

T = TypeVar("T")


class RandomPairingReservoir(Generic[T]):
    """Uniform bounded-size sample of a stream with deletions."""

    __slots__ = (
        "_capacity",
        "_rng",
        "_slots",
        "_slot_of",
        "_population",
        "_c_bad",
        "_c_good",
    )

    def __init__(self, capacity: int, seed: int | None = 0) -> None:
        check_positive("capacity", capacity)
        self._capacity = capacity
        self._rng = make_rng(seed)
        self._slots: List[T] = []
        self._slot_of: Dict[T, int] = {}
        self._population = 0
        self._c_bad = 0  # uncompensated deletions that had been sampled
        self._c_good = 0  # uncompensated deletions that had not

    # ------------------------------------------------------------------
    # Slot-array primitives
    # ------------------------------------------------------------------
    def _add(self, item: T) -> None:
        if item in self._slot_of:
            raise ValueError(f"duplicate sample item {item!r}")
        self._slot_of[item] = len(self._slots)
        self._slots.append(item)

    def _discard(self, item: T) -> bool:
        pos = self._slot_of.pop(item, None)
        if pos is None:
            return False
        slots = self._slots
        last = slots.pop()
        if pos < len(slots):  # the removed item was not the tail
            slots[pos] = last
            self._slot_of[last] = pos
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum sample size."""
        return self._capacity

    @property
    def population(self) -> int:
        """Current population size implied by the insert/delete history."""
        return self._population

    @property
    def pending_deletions(self) -> int:
        """Uncompensated deletions (``c_bad + c_good``)."""
        return self._c_bad + self._c_good

    @property
    def sample_size(self) -> int:
        """Current number of sampled items."""
        return len(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def contains(self, item: T) -> bool:
        """True if ``item`` is currently in the sample."""
        return item in self._slot_of

    def __contains__(self, item: T) -> bool:
        return item in self._slot_of

    def __iter__(self) -> Iterator[T]:
        return iter(self._slots)

    def items(self) -> List[T]:
        """The current sample as a list (copy, in slot order)."""
        return list(self._slots)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """Complete serializable state of the sampler.

        The sample is exported *in internal slot order* — eviction picks
        a victim by slot index, so order (not just membership) must
        survive a round-trip for replay determinism. The RNG state is
        exported exactly via ``random.Random.getstate``.
        """
        return {
            "capacity": self._capacity,
            "items": list(self._slots),
            "population": self._population,
            "c_bad": self._c_bad,
            "c_good": self._c_good,
            "rng_state": self._rng.getstate(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RandomPairingReservoir[T]":
        """Reconstruct a sampler from :meth:`get_state` output.

        The restored sampler makes bit-identical future decisions: the
        RNG state, counters, and sample slot order are all exact.

        The state is validated before use — an oversized or duplicated
        sample, or negative counters, can never come from
        :meth:`get_state` and would silently corrupt every later
        sampling decision, so a structurally impossible state raises
        :class:`ValueError` here (the persistence layer surfaces it as a
        :class:`~repro.errors.CheckpointError`).
        """
        capacity = state["capacity"]
        items = state["items"]
        if len(items) > capacity:
            raise ValueError(
                f"corrupt sampler state: {len(items)} sample items exceed "
                f"capacity {capacity}"
            )
        for field in ("population", "c_bad", "c_good"):
            if state[field] < 0:
                raise ValueError(
                    f"corrupt sampler state: negative {field} ({state[field]})"
                )
        sampler: "RandomPairingReservoir[T]" = cls(capacity, seed=0)
        sampler._rng.setstate(state["rng_state"])
        for item in items:
            if item in sampler._slot_of:
                raise ValueError(
                    f"corrupt sampler state: duplicate sample item {item!r}"
                )
            sampler._add(item)
        sampler._population = state["population"]
        sampler._c_bad = state["c_bad"]
        sampler._c_good = state["c_good"]
        return sampler

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_many(
        self,
        items: Sequence[T],
        deletes: Sequence[int] = (),
        veto: Optional[Callable[[int, T, list], bool]] = None,
    ) -> Tuple[List[Tuple[Optional[T], Optional[T]]], int, Optional[ValueError]]:
        """Account for a batch of updates in event order.

        The ascending positions in ``deletes`` are deletions, every other
        item an insertion. An insertion is paired with a random
        uncompensated deletion while any is pending, fills a free slot,
        or else takes the Algorithm R step against the live population,
        evicting a victim picked by slot index. Each draw is
        ``randrange``'s accept-reject loop over ``getrandbits``, bit for
        bit.

        Once an insertion's draws admit it, ``veto(i, item, changes)`` (if
        given) may refuse it by returning True: its draws stay spent and
        nothing is evicted. ``changes`` is the list this call returns,
        built so far; the hook may apply and clear it, and the call then
        returns only the changes made after.

        Returns ``(changes, stop, error)``: the sample changes in event
        order as ``(gone, came)`` pairs, None for no item; and None, or
        the error the update at position ``stop`` raises (a sampled item
        added again, after its draws and veto and before any eviction; a
        deletion from an empty population), where the batch stopped.
        Without an error ``stop`` is ``len(items)``.
        """
        slots = self._slots
        slot_of = self._slot_of
        getrandbits = self._rng.getrandbits
        capacity = self._capacity
        population = self._population
        c_bad = self._c_bad
        c_good = self._c_good
        changes: List[Tuple[Optional[T], Optional[T]]] = []
        # Kept in step with the counters and the slots below, so the
        # common update tests two locals: c_bad + c_good, free slots.
        pending = c_bad + c_good
        free = capacity - len(slots)
        d = 0
        next_delete = deletes[0] if deletes else -1
        try:
            for i, item in enumerate(items):
                if i == next_delete:
                    d += 1
                    next_delete = deletes[d] if d < len(deletes) else -1
                    if population <= 0:
                        return changes, i, ValueError("delete from an empty population")
                    population -= 1
                    pending += 1
                    pos = slot_of.pop(item, None)
                    if pos is None:
                        c_good += 1
                        continue
                    c_bad += 1
                    free += 1
                    last = slots.pop()
                    if pos < len(slots):
                        slots[pos] = last
                        slot_of[last] = pos
                    changes.append((item, None))
                    continue
                population += 1
                if pending:
                    # Pair with a random uncompensated deletion.
                    bits = pending.bit_length()
                    r = getrandbits(bits)
                    while r >= pending:
                        r = getrandbits(bits)
                    pending -= 1
                    if r >= c_bad:
                        c_good -= 1
                        continue
                    c_bad -= 1
                    gone = None
                elif free:
                    gone = None
                else:
                    # Algorithm R against the live population.
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
                    gone = slots[r]
                if veto is not None and veto(i, item, changes):
                    continue
                if item in slot_of:
                    return changes, i, ValueError(f"duplicate sample item {item!r}")
                if gone is None:
                    free -= 1
                else:
                    pos = slot_of.pop(gone)
                    last = slots.pop()
                    if pos < len(slots):
                        slots[pos] = last
                        slot_of[last] = pos
                slot_of[item] = len(slots)
                slots.append(item)
                changes.append((gone, item))
            return changes, len(items), None
        finally:
            self._population = population
            self._c_bad = c_bad
            self._c_good = c_good

    def insert(self, item: T) -> bool:
        """Account for one insertion; True if ``item`` entered the sample.

        A one-item :meth:`update_many`, whose error it raises.
        """
        changes, _, error = self.update_many((item,))
        if error is not None:
            raise error
        return bool(changes)

    def delete(self, item: T) -> bool:
        """Account for a deletion; returns True if ``item`` left the sample."""
        if self._population <= 0:
            raise ValueError("delete from an empty population")
        self._population -= 1
        if self._discard(item):
            self._c_bad += 1
            return True
        self._c_good += 1
        return False


class PackedEdgeReservoir(RandomPairingReservoir[int]):
    """Random-pairing reservoir over packed ``(u32, u32)`` edge keys.

    Items are single non-negative ints — ``(min_id << 32) | max_id`` for
    an edge between two interned vertex ids
    (:class:`~repro.graph.intern.VertexInterner`) — so the slot array is
    a compact ``array('Q')`` (8 bytes per sampled edge instead of a
    56-byte tuple plus two object references) and the item→slot index
    dict hashes machine ints. Sampling decisions, RNG draws, and the
    slot-order state contract are exactly the base class's; only the
    slot storage differs.
    """

    __slots__ = ()

    def __init__(self, capacity: int, seed: int | None = 0) -> None:
        super().__init__(capacity, seed=seed)
        self._slots = array("Q")

    @classmethod
    def from_state(
        cls, state: dict, *, id_limit: int | None = None
    ) -> "PackedEdgeReservoir":
        """Reconstruct a packed reservoir, validating the packed keys.

        Beyond the base-class structural checks, every item must be a
        non-negative int that fits the ``(u32 << 32) | u32`` packing,
        and — when ``id_limit`` is given (the interner's table size) —
        both endpoint ids must fall inside the interner's id range: a
        key referencing an id the interner never assigned cannot come
        from :meth:`get_state` and would crash (or silently corrupt)
        every later label lookup.
        """
        for item in state["items"]:
            if type(item) is not int or item < 0 or item > 0xFFFFFFFFFFFFFFFF:
                raise ValueError(
                    f"corrupt sampler state: packed edge key {item!r} is "
                    "not a u64"
                )
            if id_limit is not None:
                hi = item >> 32
                lo = item & 0xFFFFFFFF
                if hi >= id_limit or lo >= id_limit:
                    raise ValueError(
                        f"corrupt sampler state: packed edge key {item:#x} "
                        f"references vertex id {max(hi, lo)} outside the "
                        f"intern table (size {id_limit})"
                    )
        return super().from_state(state)
