"""Unit tests for the random-pairing reservoir."""

import random
from collections import Counter

import pytest

from repro.sampling import InsertProposal, RandomPairingReservoir
from repro.sampling.random_pairing import PackedEdgeReservoir


class TestRandomPairing:
    def test_insert_commit_cycle(self):
        rp = RandomPairingReservoir(3, seed=0)
        for x in range(3):
            proposal = rp.propose_insert(x)
            assert proposal.admit
            rp.commit(proposal)
        assert rp.sample_size == 3
        assert rp.population == 3

    def test_commit_non_admitting_raises(self):
        rp = RandomPairingReservoir(1, seed=0)
        rp.insert("a")
        # Force a rejection by inserting many items; find one.
        for x in range(100):
            proposal = rp.propose_insert(x)
            if not proposal.admit:
                with pytest.raises(ValueError):
                    rp.commit(proposal)
                return
            rp.commit(proposal)
        pytest.fail("never saw a rejection in 100 offers to a size-1 reservoir")

    def test_commit_of_a_resident_evicts_nothing(self):
        rp = RandomPairingReservoir(2, seed=0)
        rp.insert("a")
        rp.insert("b")
        with pytest.raises(ValueError, match="duplicate sample item"):
            rp.commit(InsertProposal("a", admit=True, evicted="b"))
        assert sorted(rp.items()) == ["a", "b"]

    def test_update_many_draws_as_one_event_at_a_time(self):
        # Deletions, pairing and steady state, and a resident added
        # again: the batch stops there exactly as the per-event calls do.
        rng = random.Random(8)
        keys, deletes, live = [], [], []
        for position in range(400):
            if live and rng.random() < 0.3:
                keys.append(live.pop(rng.randrange(len(live))))
                deletes.append(position)
            else:
                key = rng.randrange(60)
                keys.append(key)
                live.append(key)
        per_event = PackedEdgeReservoir(12, seed=4)
        for position, key in enumerate(keys):
            if position in deletes:
                per_event.delete(key)
                continue
            proposal = per_event.propose_insert(key)
            if proposal.admit:
                try:
                    per_event.commit(proposal)
                except ValueError as error:
                    expected = (position, str(error))
                    break
        batched = PackedEdgeReservoir(12, seed=4)
        changes, stop, error = batched.update_many(keys, deletes)
        assert (stop, str(error)) == expected
        assert batched.get_state() == per_event.get_state()
        assert len(changes) > 0

    def test_delete_from_sample_and_outside(self):
        rp = RandomPairingReservoir(2, seed=0)
        rp.insert("a")
        rp.insert("b")
        rp.insert("c")  # may or may not be in the sample
        inside = rp.items()[0]
        assert rp.delete(inside) is True
        assert rp.pending_deletions == 1
        outside = next(x for x in ("a", "b", "c") if not rp.contains(x) and x != inside)
        assert rp.delete(outside) is False
        assert rp.pending_deletions == 2
        assert rp.population == 1

    def test_delete_from_empty_population_raises(self):
        rp = RandomPairingReservoir(2, seed=0)
        with pytest.raises(ValueError):
            rp.delete("ghost")

    def test_pairing_compensates_bad_deletions(self):
        # With only bad (in-sample) uncompensated deletions, the next
        # insertion must be admitted without eviction.
        rp = RandomPairingReservoir(2, seed=0)
        rp.insert("a")
        rp.insert("b")
        rp.delete(rp.items()[0])
        proposal = rp.propose_insert("c")
        assert proposal.admit and proposal.evicted is None
        rp.commit(proposal)
        assert rp.sample_size == 2

    def test_pairing_skips_good_deletions(self):
        # With only good (out-of-sample) uncompensated deletions, the
        # next insertion must be skipped.
        rp = RandomPairingReservoir(1, seed=3)
        rp.insert("a")
        rp.insert("b")
        rp.insert("c")
        outside = [x for x in ("a", "b", "c") if not rp.contains(x)]
        rp.delete(outside[0])
        proposal = rp.propose_insert("d")
        assert not proposal.admit

    def test_abort_leaves_sample_untouched(self):
        rp = RandomPairingReservoir(2, seed=0)
        rp.insert("a")
        before = sorted(rp.items())
        proposal = rp.propose_insert("b")
        rp.abort(proposal)
        assert sorted(rp.items()) == before
        assert rp.population == 2  # population still counts the item

    def test_from_state_roundtrip(self):
        rp = RandomPairingReservoir(3, seed=5)
        for x in range(10):
            rp.insert(x)
        rp.delete(rp.items()[0])
        restored = RandomPairingReservoir.from_state(rp.get_state())
        assert restored.items() == rp.items()
        assert restored.population == rp.population
        assert restored.pending_deletions == rp.pending_deletions

    @pytest.fixture
    def sampler_state(self):
        rp = RandomPairingReservoir(3, seed=5)
        for x in range(10):
            rp.insert(x)
        return rp.get_state()

    def test_from_state_rejects_oversized_sample(self, sampler_state):
        sampler_state["items"] = list(range(sampler_state["capacity"] + 1))
        with pytest.raises(ValueError, match="exceed"):
            RandomPairingReservoir.from_state(sampler_state)

    def test_from_state_rejects_duplicate_items(self, sampler_state):
        sampler_state["items"] = ["a"] * len(sampler_state["items"])
        with pytest.raises(ValueError, match="duplicate"):
            RandomPairingReservoir.from_state(sampler_state)

    @pytest.mark.parametrize("field", ["population", "c_bad", "c_good"])
    def test_from_state_rejects_negative_counters(self, sampler_state, field):
        sampler_state[field] = -1
        with pytest.raises(ValueError, match=f"negative {field}"):
            RandomPairingReservoir.from_state(sampler_state)

    def test_uniform_over_surviving_population(self):
        # Insert 30, delete 10 specific ones, insert 10 more; every one
        # of the 30 survivors should be sampled equally often.
        counts = Counter()
        runs = 4000
        for seed in range(runs):
            rp = RandomPairingReservoir(6, seed=seed)
            for x in range(30):
                rp.insert(x)
            for x in range(10):
                rp.delete(x)
            for x in range(30, 40):
                rp.insert(x)
            counts.update(rp.items())
        survivors = list(range(10, 40))
        expected = runs * 6 / len(survivors)
        for x in survivors:
            assert abs(counts[x] - expected) < 5 * (expected**0.5), x
        assert all(counts[x] == 0 for x in range(10))
