"""Unit tests for the random-pairing reservoir."""

import random
from collections import Counter

import pytest

from repro.sampling import RandomPairingReservoir
from repro.sampling.random_pairing import PackedEdgeReservoir
from tests.reference import RandomPairingModel


class TestRandomPairing:
    def test_insert_commit_cycle(self):
        rp = RandomPairingReservoir(3, seed=0)
        for x in range(3):
            assert rp.insert(x) is True
        assert rp.sample_size == 3
        assert rp.population == 3

    def test_insert_of_a_resident_evicts_nothing(self):
        # A resident added again raises after its draws and before any
        # eviction: the victim those draws picked stays sampled.
        failures = 0
        for seed in range(40):
            rp = RandomPairingReservoir(2, seed=seed)
            rp.insert("a")
            rp.insert("b")
            for _ in range(20):
                before = rp.items()
                try:
                    rp.insert("a" if "a" in before else "b")
                except ValueError as error:
                    assert "duplicate sample item" in str(error)
                    assert rp.items() == before
                    failures += 1
        assert failures > 0

    def test_update_many_draws_as_one_event_at_a_time(self):
        # Deletions, pairing and steady state, and a resident added
        # again: the batch stops there exactly as the per-event model does.
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
        model = RandomPairingModel(12, random.Random(4))
        for position, key in enumerate(keys):
            if position in deletes:
                model.delete(key)
                continue
            admit, victim = model.offer(key)
            if admit:
                try:
                    model.commit(key, victim)
                except ValueError as error:
                    expected = (position, str(error))
                    break
        batched = PackedEdgeReservoir(12, seed=4)
        changes, stop, error = batched.update_many(keys, deletes)
        assert (stop, str(error)) == expected
        assert batched.items() == model.slots
        state = batched.get_state()
        assert state["rng_state"] == model.rng.getstate()
        assert (state["population"], state["c_bad"], state["c_good"]) == (
            model.population,
            model.c_bad,
            model.c_good,
        )
        assert len(changes) > 0

    def test_veto_leaves_sample_untouched(self):
        # A vetoed admission spends its draws (the population still
        # counts the item) and evicts nothing, in the fill, pairing and
        # steady-state steps alike.
        rp = RandomPairingReservoir(2, seed=0)
        rp.insert("a")
        changes, stop, error = rp.update_many(["b"], veto=lambda i, item, changes: True)
        assert (changes, stop, error) == ([], 1, None)
        assert rp.items() == ["a"] and rp.population == 2
        rp.insert("b")
        rp.delete("a")
        rp.update_many(["c"], veto=lambda i, item, changes: True)
        assert rp.items() == ["b"] and rp.pending_deletions == 0
        rp.insert("c")
        asked = []

        def veto(i, item, changes):
            asked.append(i)
            return True

        for x in range(50):
            before = rp.items()
            rp.update_many([x], veto=veto)
            assert rp.items() == before
        assert asked and rp.population == 54

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
        changes, _, _ = rp.update_many(["c"])
        assert changes == [(None, "c")]
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
        assert rp.insert("d") is False
        assert not rp.contains("d")

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
