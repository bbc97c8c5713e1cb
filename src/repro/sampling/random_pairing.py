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

Two-phase insertions
--------------------
The streaming clusterer must be able to *veto* an admission (constraint
policies may forbid the merge an edge would cause). The sampler
therefore exposes a propose/commit protocol:

>>> rp = RandomPairingReservoir(2, seed=1)
>>> proposal = rp.propose_insert("a")
>>> proposal.admit
True
>>> rp.commit(proposal)          # or rp.abort(proposal) to veto
>>> rp.contains("a")
True

Counter bookkeeping happens at propose time (the pairing slot is
consumed whether or not the caller commits), so uniformity is preserved
exactly in the unconstrained case and degrades only by the vetoes the
caller actually issues.

A batch of unconstrained updates goes through
:meth:`PackedEdgeReservoir.update_many` instead, which makes the exact
same RNG draws in the exact same order as the two-phase protocol — a
stream driven through it is bit-identical to one driven event by event.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.util.rng import make_rng
from repro.util.validation import check_positive

__all__ = [
    "InsertProposal",
    "PackedEdgeReservoir",
    "RandomPairingReservoir",
]

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class InsertProposal(Generic[T]):
    """Outcome of :meth:`RandomPairingReservoir.propose_insert`.

    ``admit`` says whether the sampler wants the item in the sample;
    ``evicted`` names the resident that would make room (only in the
    steady-state Algorithm R case). Pass the proposal back to
    :meth:`~RandomPairingReservoir.commit` or
    :meth:`~RandomPairingReservoir.abort`.
    """

    item: T
    admit: bool
    evicted: Optional[T] = None


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
    def propose_insert(self, item: T) -> InsertProposal[T]:
        """Account for an insertion and propose a sample action.

        Counter updates happen here; the sample itself is only modified
        by a subsequent :meth:`commit`.
        """
        self._population += 1
        pending = self._c_bad + self._c_good
        if pending > 0:
            # Pair this insertion with a random uncompensated deletion.
            if self._rng.randrange(pending) < self._c_bad:
                self._c_bad -= 1
                return InsertProposal(item, admit=True)
            self._c_good -= 1
            return InsertProposal(item, admit=False)
        if len(self._slots) < self._capacity:
            return InsertProposal(item, admit=True)
        # Steady state: classic Algorithm R against the live population.
        if self._rng.randrange(self._population) < self._capacity:
            evicted = self._slots[self._rng.randrange(len(self._slots))]
            return InsertProposal(item, admit=True, evicted=evicted)
        return InsertProposal(item, admit=False)

    def commit(self, proposal: InsertProposal[T]) -> None:
        """Apply an admitting proposal to the sample."""
        if not proposal.admit:
            raise ValueError("cannot commit a non-admitting proposal")
        # Refuse a resident before evicting anything, so a failed commit
        # leaves the sample as it was (the draws are already spent).
        if proposal.item in self._slot_of:
            raise ValueError(f"duplicate sample item {proposal.item!r}")
        if proposal.evicted is not None:
            self._discard(proposal.evicted)
        self._add(proposal.item)

    def abort(self, proposal: InsertProposal[T]) -> None:
        """Veto a proposal; the sample is left untouched.

        Counters were already settled at propose time, so this is a
        recorded no-op kept for call-site symmetry and future auditing.
        """

    def insert(self, item: T) -> InsertProposal[T]:
        """Convenience: propose and immediately commit if admitting."""
        proposal = self.propose_insert(item)
        if proposal.admit:
            self.commit(proposal)
        return proposal

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

    def update_many(
        self, keys: List[int], deletes: Sequence[int] = ()
    ) -> Tuple[List[Tuple[int, int]], int, Optional[ValueError]]:
        """Account for a batch of updates in event order.

        ``keys`` are packed edge keys; the ascending positions in
        ``deletes`` are deletions, every other key an insertion. Each
        update draws and decides exactly as :meth:`propose_insert` with
        :meth:`commit`, or :meth:`delete`, would (``randrange``'s
        accept-reject loop over ``getrandbits``, bit for bit).

        Returns ``(changes, stop, error)``: the sample changes in event
        order as ``(gone, came)`` pairs, ``-1`` for no key; and None, or
        the error the update at position ``stop`` raises one at a time
        (a sampled key added again, after its draws and before any
        eviction; a deletion from an empty population), where the batch
        stopped. Without an error ``stop`` is ``len(keys)``.
        """
        slots = self._slots
        slot_of = self._slot_of
        getrandbits = self._rng.getrandbits
        capacity = self._capacity
        population = self._population
        c_bad = self._c_bad
        c_good = self._c_good
        changes: List[Tuple[int, int]] = []
        # Kept in step with the counters and the slots below, so the
        # common update tests two locals: c_bad + c_good, free slots.
        pending = c_bad + c_good
        free = capacity - len(slots)
        d = 0
        next_delete = deletes[0] if deletes else -1
        try:
            for i, key in enumerate(keys):
                if i == next_delete:
                    d += 1
                    next_delete = deletes[d] if d < len(deletes) else -1
                    if population <= 0:
                        return changes, i, ValueError("delete from an empty population")
                    population -= 1
                    pending += 1
                    pos = slot_of.pop(key, None)
                    if pos is None:
                        c_good += 1
                        continue
                    c_bad += 1
                    free += 1
                    last = slots.pop()
                    if pos < len(slots):
                        slots[pos] = last
                        slot_of[last] = pos
                    changes.append((key, -1))
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
                    gone = -1
                elif free:
                    gone = -1
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
                if key in slot_of:
                    return changes, i, ValueError(f"duplicate sample item {key!r}")
                if gone >= 0:
                    pos = slot_of.pop(gone)
                    last = slots.pop()
                    if pos < len(slots):
                        slots[pos] = last
                        slot_of[last] = pos
                else:
                    free -= 1
                slot_of[key] = len(slots)
                slots.append(key)
                changes.append((gone, key))
            return changes, len(keys), None
        finally:
            self._population = population
            self._c_bad = c_bad
            self._c_good = c_good

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
