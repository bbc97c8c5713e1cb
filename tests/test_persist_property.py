"""Property-based tests for checkpoint/restore identity.

The contract under test: checkpointing after *any* prefix of an event
stream, restoring from the file, and replaying the tail produces the
identical partition, statistics, and reservoir as the uninterrupted
run. This must hold for deletion-heavy streams (which exercise Random Pairing's compensation counters and
component splits), and for the sharded clusterer.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClustererConfig, ShardedClusterer, StreamingGraphClusterer
from repro.persist import load_checkpoint, save_checkpoint
from repro.streams import add_edge, delete_edge

# Toggle stream over a small vertex universe: repeating a pair deletes
# the edge it previously added, so generated streams are deletion-heavy
# whenever hypothesis repeats pairs (it does, aggressively, on shrink).
_ops = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda p: p[0] != p[1]),
    min_size=1,
    max_size=100,
)


def _events(ops):
    live: set = set()
    events = []
    for a, b in ops:
        edge = (min(a, b), max(a, b))
        if edge in live:
            events.append(delete_edge(*edge))
            live.discard(edge)
        else:
            events.append(add_edge(*edge))
            live.add(edge)
    return events


def _identical(restored, reference) -> None:
    assert restored.snapshot() == reference.snapshot()
    assert restored.stats.as_dict() == reference.stats.as_dict()
    assert restored.reservoir_edges() == reference.reservoir_edges()


@settings(max_examples=60, deadline=None)
@given(
    ops=_ops,
    cut=st.integers(0, 100),
    seed=st.integers(0, 2**20),
    capacity=st.integers(1, 20),
)
def test_checkpoint_at_any_prefix_single(tmp_path_factory, ops, cut, seed,
                                         capacity):
    path = tmp_path_factory.mktemp("ck") / "single.rpk"
    events = _events(ops)
    cut = min(cut, len(events))
    config = ClustererConfig(reservoir_capacity=capacity, seed=seed)

    uninterrupted = StreamingGraphClusterer(config).process(events)

    interrupted = StreamingGraphClusterer(config).process(events[:cut])
    save_checkpoint(interrupted, path, position=cut)
    checkpoint = load_checkpoint(path)
    restored = checkpoint.clusterer.process(checkpoint.remaining(events))

    _identical(restored, uninterrupted)


@settings(max_examples=40, deadline=None)
@given(
    ops=_ops,
    cut=st.integers(0, 100),
    seed=st.integers(0, 2**20),
    num_shards=st.integers(1, 4),
)
def test_checkpoint_at_any_prefix_sharded(tmp_path_factory, ops, cut, seed,
                                          num_shards):
    path = tmp_path_factory.mktemp("ck") / "sharded.rpk"
    events = _events(ops)
    cut = min(cut, len(events))
    config = ClustererConfig(reservoir_capacity=12, seed=seed)

    uninterrupted = ShardedClusterer(config, num_shards).process(events)

    interrupted = ShardedClusterer(config, num_shards).process(events[:cut])
    save_checkpoint(interrupted, path, position=cut)
    checkpoint = load_checkpoint(path)
    restored = checkpoint.clusterer.process(checkpoint.remaining(events))

    assert restored.snapshot() == uninterrupted.snapshot()
    assert restored.shard_events == uninterrupted.shard_events
    assert (
        sorted(e for s in restored.shards for e in s.reservoir_edges())
        == sorted(e for s in uninterrupted.shards for e in s.reservoir_edges())
    )


@settings(max_examples=40, deadline=None)
@given(
    ops=_ops,
    cuts=st.tuples(st.integers(0, 50), st.integers(0, 50)),
    seed=st.integers(0, 2**20),
)
def test_repeated_checkpointing_is_still_identical(tmp_path_factory, ops, cuts, seed):
    """Checkpointing twice along the way (crash → resume → crash → resume)
    must compose: the final state still equals the uninterrupted run."""
    path = tmp_path_factory.mktemp("ck") / "hop.rpk"
    events = _events(ops)
    first, second = sorted(min(c, len(events)) for c in cuts)
    config = ClustererConfig(reservoir_capacity=8, seed=seed)

    uninterrupted = StreamingGraphClusterer(config).process(events)

    stage = StreamingGraphClusterer(config).process(events[:first])
    save_checkpoint(stage, path, position=first)
    stage = load_checkpoint(path).clusterer.process(events[first:second])
    save_checkpoint(stage, path, position=second)
    checkpoint = load_checkpoint(path)
    restored = checkpoint.clusterer.process(checkpoint.remaining(events))

    _identical(restored, uninterrupted)
