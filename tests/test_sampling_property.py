"""Property-based tests for the samplers' core invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import RandomPairingReservoir


# Random-pairing op sequences: insert fresh ids; delete ids currently live.
@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 10),
    choices=st.lists(st.booleans(), min_size=1, max_size=150),
    seed=st.integers(0, 2**20),
)
def test_random_pairing_invariants(capacity, choices, seed):
    rp = RandomPairingReservoir(capacity, seed=seed)
    live: list = []
    next_id = 0
    deleted: set = set()
    for do_insert in choices:
        if do_insert or not live:
            rp.insert(next_id)
            live.append(next_id)
            next_id += 1
        else:
            victim = live.pop(len(live) // 2)
            rp.delete(victim)
            deleted.add(victim)
        # Invariants after every operation:
        assert rp.population == len(live)
        assert rp.sample_size <= rp.capacity
        assert rp.sample_size <= rp.population
        sample = rp.items()
        assert len(sample) == len(set(sample))  # no duplicates
        assert all(item not in deleted for item in sample)  # sample ⊆ live
        assert all(item in live for item in sample)


@settings(max_examples=50, deadline=None)
@given(
    capacity=st.integers(1, 8),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**20),
)
def test_random_pairing_refills_after_total_deletion(capacity, n, seed):
    """Delete everything, then insert again: sample must recover.

    Random pairing may keep the sample *below* capacity while deletion
    debts are being paired away (each insertion settles one debt), so
    full recovery is only guaranteed after ``n`` (debts) + ``capacity``
    further insertions.
    """
    rp = RandomPairingReservoir(capacity, seed=seed)
    for x in range(n):
        rp.insert(x)
    for x in range(n):
        rp.delete(x)
    assert rp.sample_size == 0
    assert rp.population == 0
    assert rp.pending_deletions == n
    for x in range(n, 2 * n + capacity):
        rp.insert(x)
    assert rp.pending_deletions == 0
    assert rp.sample_size == capacity
