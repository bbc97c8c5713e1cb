"""Seeded stream generators, frame encoding and the inline reference.

Every workload is a :class:`Workload` spec. Its stream comes from a
planted-partition (SBM) edge set drawn with numpy from the workload
seed alone, so the served program only ever sees the encoded frames.

* Edges are **unique**. In lean mode a second ADD of an edge that is
  still sampled raises ``duplicate sample item`` and the session drops
  the whole batch, so a generator that repeated edges would make the
  benchmark measure itself instead of the server.
* A stream is a warm-up of insert-only frames, then frames of one
  fixed make-up. With churn, every frame after the warm-up deletes the
  same number of edges and re-adds as many, so every timed round does
  the same work. Churned edges keep ``add < delete < re-add``.
* A pass sends the stream in **rounds**: the warm-up frames, then
  ``round_frames`` frames at a time. Each round ends with a one-edge
  probe frame and a MEMBERSHIP barrier whose reply the inline reference
  predicts. After the stream the pass reads the tenant in rounds, each
  a probe frame and one timed read. A probe joins two vertices the
  stream never uses, so the tenant's vertex set changes before every
  barrier and read, and each one rebuilds the O(V) partition. Without
  it, a barrier after a deletion on the numpy kernel sometimes finds
  the connectivity current and skips the rebuild, and the rounds would
  differ in cost.
* Frames are encoded once per (workload, seed), one frame per batch, so
  the server's coalescer never moves a batch boundary and the inline
  reference replays the same boundaries. Insert-only frames travel as
  codec-v3 columnar frames, frames with deletions as codec-v2 tuple
  frames, as ``ServiceClient.send_columns`` sends them. Frames, the
  vertex table and the expected answers are cached under
  ``.repro_cache/servebench/``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
from pathlib import Path
from typing import List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
CACHE_DIR = ROOT / ".repro_cache" / "servebench"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core import ClustererConfig, StreamingGraphClusterer  # noqa: E402
from repro.serve.protocol import render_membership, render_snapshot  # noqa: E402
from repro.streams.codec import (  # noqa: E402
    DEFAULT_MAX_WIRE_BYTES,
    DeltaBatchDecoder,
    FrameEncoder,
)
from repro.streams.events import EventKind  # noqa: E402

#: Clusterer seed of every served tenant and of the inline reference.
SERVER_SEED = 14
#: Vertices and communities of every SBM stream. Every barrier and every
#: read rebuilds an O(V) partition, so V sets the cost of a read and the
#: barrier's share of a write round.
VERTICES = 5000
COMMUNITIES = 5
#: Share of the SBM edges that join two different communities.
INTER_FRAC = 0.1
#: A churned edge is deleted this many frames after its add and re-added
#: this many frames after its deletion.
CHURN_LAG = 4
#: Reservoir capacity (sampled edges) of every tenant: a quarter of the
#: vertex count. The sample stays below one edge per two vertices, so
#: clusters stay small and MEMBERSHIP replies short.
CAPACITY = 1250
#: MEMBERSHIP rounds per pass on workloads without a concurrent reader.
QUERY_ROUNDS = 12
#: SNAPSHOT rounds per pass.
SNAPSHOT_ROUNDS = 8


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix. Sizes are fields so tests can shrink them."""

    name: str
    why: str
    kernel: str
    frame_events: int
    #: Frames per timed write round, and timed rounds per pass.
    round_frames: int
    rounds: int
    #: Insert-only frames sent as one untimed round before the timed ones.
    warmup: int = 0
    #: Deletions (and as many re-adds) in every frame after the warm-up.
    deletes: int = 0
    checkpoint_every: int = 0
    #: Open-loop writer rate in events/s, with a reader thread that
    #: issues MEMBERSHIP queries during the stream and replaces the
    #: post-stream MEMBERSHIP rounds (0: closed-loop write rounds).
    rate: float = 0.0

    @property
    def frames(self) -> int:
        return self.warmup + self.rounds * self.round_frames

    @property
    def query_rounds(self) -> int:
        return 0 if self.rate else QUERY_ROUNDS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ingest_numpy",
            "Deployment fast path: v3 decode, numpy batch kernel and vectorized "
            "sampling; connectivity does almost nothing.",
            kernel="numpy", frame_events=8192, warmup=16, round_frames=24, rounds=4,
        ),
        Workload(
            "churn_scalar",
            "Deletions beside inserts on the exact scalar kernel, with periodic "
            "checkpoints: batch loop, HDT connectivity and persist.",
            kernel="scalar", frame_events=1024, warmup=64, round_frames=8, rounds=6,
            deletes=192, checkpoint_every=100_000,
        ),
        Workload(
            "churn_numpy",
            "Deletions on the numpy kernel, one a frame: each falls back to the "
            "per-event path and flushes the deferred connectivity.",
            kernel="numpy", frame_events=1024, warmup=128, round_frames=4, rounds=8,
            deletes=1,
        ),
        Workload(
            "read_mix_scalar",
            "MEMBERSHIP reads beside an open-loop writer: each read waits behind "
            "queued frames, then rebuilds the O(V) partition.",
            kernel="scalar", frame_events=1024, round_frames=50, rounds=1,
            rate=25_000.0,
        ),
    )
}


def round_slices(w: Workload) -> List[slice]:
    """The frames of each write round: the warm-up (if any), then the
    timed rounds."""
    ends = [w.warmup + i * w.round_frames for i in range(w.rounds + 1)]
    if w.warmup:
        ends.insert(0, 0)
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def sbm_edges(
    rng: np.random.Generator, vertices: int, communities: int, edges: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``edges`` distinct undirected SBM edges as shuffled ``(lo, hi)``.

    Communities are equal blocks of a random relabelling of
    ``range(vertices)``; a share :data:`INTER_FRAC` of the edges joins
    two different communities, so the two kinds never collide.
    """
    size = vertices // communities
    if size < 2 or communities < 2:
        raise ValueError("need at least 2 communities of at least 2 vertices")
    n_inter = int(round(edges * INTER_FRAC))
    parts = []
    for intra, want in ((True, edges - n_inter), (False, n_inter)):
        have = np.empty(0, dtype=np.int64)
        while have.size < want:
            draw = int((want - have.size) * 1.3) + 64
            if intra:
                block = rng.integers(communities, size=draw) * size
                u = block + rng.integers(size, size=draw)
                v = block + rng.integers(size, size=draw)
                keep = u != v
            else:
                u = rng.integers(communities * size, size=draw)
                v = rng.integers(communities * size, size=draw)
                keep = u // size != v // size
            u, v = u[keep], v[keep]
            merged = np.concatenate([have, np.minimum(u, v) * vertices + np.maximum(u, v)])
            # First occurrences in draw order: the result does not depend
            # on how np.unique sorts.
            have = merged[np.sort(np.unique(merged, return_index=True)[1])]
        parts.append(have[:want])
    keys = np.concatenate(parts)
    keys = keys[rng.permutation(keys.size)]
    relabel = rng.permutation(vertices)
    a = relabel[keys // vertices]
    b = relabel[keys % vertices]
    return np.minimum(a, b), np.maximum(a, b)


def churn_order(
    rng: np.random.Generator, warmup: int, frames: int, frame_events: int, deletes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Event order of a stream with ``deletes`` deletions per frame:
    ``(kinds, edge_index)`` arrays over an edge list used in order, with
    kind 0 for an add and 1 for a deletion.

    The warm-up's ``warmup`` frames add edges ``0, 1, ...``. Each later
    frame deletes ``deletes`` edges, re-adds the edges it deleted
    :data:`CHURN_LAG` frames before (none in the first frames) and fills
    up with new edges, in a shuffled order. It deletes the first new
    edges of the frame :data:`CHURN_LAG` before it, or warm-up edges in
    the first frames. So every edge keeps ``add < delete < re-add``.
    """
    size, d = frame_events, deletes
    if warmup * size < CHURN_LAG * d or size < 2 * d:
        raise ValueError("the warm-up or the frames are too small for the churn")
    kinds = [np.zeros(warmup * size, np.int8)]
    index = [np.arange(warmup * size)]
    fresh = warmup * size
    added: List[np.ndarray] = []
    removed: List[np.ndarray] = []
    for j in range(frames):
        if j >= CHURN_LAG:
            gone, back = added[j - CHURN_LAG], removed[j - CHURN_LAG]
        else:
            gone, back = np.arange(j * d, (j + 1) * d), np.empty(0, np.int64)
        new = np.arange(fresh, fresh + size - d - back.size)
        fresh += new.size
        added.append(new[:d])
        removed.append(gone)
        order = rng.permutation(size)
        kinds.append(np.concatenate([
            np.zeros(new.size, np.int8), np.ones(d, np.int8), np.zeros(back.size, np.int8)
        ])[order])
        index.append(np.concatenate([new, gone, back])[order])
    return np.concatenate(kinds), np.concatenate(index)


def generate(w: Workload, seed: int):
    """The workload's event stream: ``(kinds or None, us, vs)`` arrays.

    It depends on the seed and the stream fields only.
    """
    rng = np.random.default_rng(seed)
    if not w.deletes:
        lo, hi = sbm_edges(rng, VERTICES, COMMUNITIES, w.frames * w.frame_events)
        return None, lo, hi
    kinds, index = churn_order(
        rng, w.warmup, w.frames - w.warmup, w.frame_events, w.deletes
    )
    lo, hi = sbm_edges(rng, VERTICES, COMMUNITIES, int(index.max()) + 1)
    return kinds, lo[index], hi[index]


# ----------------------------------------------------------------------
# Frames and the inline reference
# ----------------------------------------------------------------------
def encode_frames(w: Workload, kinds, us, vs) -> Tuple[List[bytes], List[bytes]]:
    """One wire frame per ``frame_events`` batch (asserted), and one
    one-edge probe frame per write round, per MEMBERSHIP read round and
    per SNAPSHOT read round, in that order. The encoder's vertex table
    carries over from frame to frame, so frames are encoded in the order
    a pass sends them: each round's frames, then its probe."""
    encoder = FrameEncoder()
    frames: List[bytes] = []
    probes: List[bytes] = []
    step = w.frame_events
    kind_of = (EventKind.ADD_EDGE, EventKind.DELETE_EDGE)

    def probe() -> None:
        a = VERTICES + 2 * len(probes)
        probes.append(encoder.encode_batch([(EventKind.ADD_EDGE, a, a + 1)]))

    for part in round_slices(w):
        for start in range(part.start * step, part.stop * step, step):
            u = us[start:start + step]
            v = vs[start:start + step]
            batch_kinds = None if kinds is None else kinds[start:start + step]
            if batch_kinds is None or not batch_kinds.any():
                batch = list(
                    encoder.encode_columns(u, v, max_bytes=DEFAULT_MAX_WIRE_BYTES - 1)
                )
            else:
                events = zip(batch_kinds.tolist(), u.tolist(), v.tolist())
                batch = [encoder.encode_batch([(kind_of[k], a, b) for k, a, b in events])]
            if len(batch) != 1:
                raise AssertionError(f"{w.name}: a batch split into {len(batch)} frames")
            frames.extend(batch)
        probe()
    for _ in range(w.query_rounds + SNAPSHOT_ROUNDS):
        probe()
    return frames, probes


def config(w: Workload) -> ClustererConfig:
    """The clusterer configuration ``repro serve --lean`` builds for ``w``."""
    return ClustererConfig(
        reservoir_capacity=CAPACITY,
        track_graph=False,
        strict=False,
        seed=SERVER_SEED,
        kernel=w.kernel,
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference(w: Workload, frames: List[bytes], probes: List[bytes],
              queries: List[int]) -> List[str]:
    """What an inline clusterer answers when it applies the frames as
    the server does (decoded per connection, one ``apply_many`` per
    frame): the digests of the replies a pass must get, in order. Those are the MEMBERSHIP
    barrier of each write round, then the MEMBERSHIP or the SNAPSHOT of
    each read round. ``queries`` holds one vertex per write round, then
    one per MEMBERSHIP read round."""
    decoder = DeltaBatchDecoder()
    clusterer = StreamingGraphClusterer(config(w))
    expected = []
    slices = round_slices(w)
    for i, probe in enumerate(probes):
        if i < len(slices):
            for frame in frames[slices[i]]:
                clusterer.apply_many(decoder.decode(frame))
        if i == len(slices):
            # The pass's METRICS query reads the cluster count here.
            clusterer.snapshot()
        clusterer.apply_many(decoder.decode(probe))
        if i < len(slices) + w.query_rounds:
            members = clusterer.cluster_members(queries[i])
            expected.append(digest(render_membership(members)))
        else:
            expected.append(digest(render_snapshot(clusterer.snapshot())))
    return expected


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
#: Stream files kept in the cache (up to 8 MB each); the least
#: recently used go first.
CACHE_KEEP = 8


@dataclasses.dataclass
class Stream:
    """A workload's encoded frames and what the oracle needs."""

    frames: List[bytes]
    #: One probe frame per write round and per read round.
    probes: List[bytes]
    events: int
    #: Every vertex, in order of first appearance in the stream, and the
    #: index of the event that first mentions it: the reader picks a
    #: vertex the writer has already sent.
    vertices: np.ndarray
    first_event: np.ndarray
    #: Each write round's barrier vertex, then each MEMBERSHIP round's.
    queries: List[int]
    #: Digests of each barrier reply and of each read round's reply.
    expected: List[str]

    def seen_vertex(self, rng, sent: int) -> int:
        """A uniformly random vertex among those in the first ``sent``
        events."""
        seen = int(np.searchsorted(self.first_event, sent))
        return int(self.vertices[rng.randrange(seen)])


def first_appearances(us: np.ndarray, vs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct endpoints in order of first appearance, with the index
    of the event where each first appears."""
    flat = np.empty(2 * us.size, dtype=np.int64)
    flat[0::2] = us
    flat[1::2] = vs
    labels, first = np.unique(flat, return_index=True)
    order = np.argsort(first)
    return labels[order], first[order] // 2


def _source_digest() -> str:
    """Digest of this file and the program's sources: a cached reference
    is only valid for the code that computed it."""
    sources = hashlib.sha256()
    for path in [Path(__file__), *sorted((ROOT / "src" / "repro").rglob("*.py"))]:
        sources.update(path.read_bytes())
    return sources.hexdigest()[:16]


#: The fields the frames and the reference depend on.
_STREAM_FIELDS = (
    "kernel", "frame_events", "round_frames", "rounds", "warmup", "deletes",
    "query_rounds",
)


def build(w: Workload, seed: int) -> Stream:
    """Generate, encode and answer the stream of (w, seed)."""
    kinds, us, vs = generate(w, seed)
    frames, probes = encode_frames(w, kinds, us, vs)
    vertices, first_event = first_appearances(us, vs)
    rng = np.random.default_rng([seed, 1])
    # Each barrier asks for a vertex of its own round; each read round
    # for any vertex of the stream.
    queries = [
        int(us[rng.integers(part.start, part.stop) * w.frame_events])
        for part in round_slices(w)
    ] + vertices[rng.integers(vertices.size, size=w.query_rounds)].tolist()
    expected = reference(w, frames, probes, queries)
    return Stream(frames, probes, int(us.size), vertices, first_event, queries,
                  expected)


def load(w: Workload, seed: int) -> Stream:
    """The :class:`Stream` of (w, seed), built on first use and cached."""
    spec = [getattr(w, name) for name in _STREAM_FIELDS] + [
        VERTICES, COMMUNITIES, CAPACITY, SNAPSHOT_ROUNDS]
    key = hashlib.sha256(f"{spec}|{seed}|{_source_digest()}".encode()).hexdigest()
    path = CACHE_DIR / f"stream-{seed}-{key[:16]}.npz"
    if path.exists():
        os.utime(path)
        with np.load(path, allow_pickle=False) as data:
            blob = data["blob"].tobytes()
            bounds = data["bounds"].tolist()
            frames = [blob[a:b] for a, b in zip(bounds, bounds[1:])]
            return Stream(
                frames=frames[:w.frames],
                probes=frames[w.frames:],
                events=int(data["events"]),
                vertices=data["vertices"],
                first_event=data["first_event"],
                queries=data["queries"].tolist(),
                expected=data["expected"].tolist(),
            )
    stream = build(w, seed)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
    frames = stream.frames + stream.probes
    np.savez(
        tmp,
        blob=np.frombuffer(b"".join(frames), dtype=np.uint8),
        bounds=np.cumsum([0] + [len(f) for f in frames]),
        events=stream.events,
        vertices=stream.vertices,
        first_event=stream.first_event,
        queries=np.array(stream.queries, dtype=np.int64),
        expected=np.array(stream.expected),
    )
    os.replace(tmp, path)
    cached = sorted(CACHE_DIR.glob("stream-*.npz"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-CACHE_KEEP]:
        old.unlink(missing_ok=True)
    return stream
