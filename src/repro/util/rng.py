"""Deterministic random-number plumbing.

Every stochastic component in the library (reservoirs, generators,
baselines) accepts an integer ``seed`` and derives its own independent
``random.Random`` instance from it. Components that spawn children (e.g.
a sharded clusterer creating per-shard reservoirs) derive *child seeds*
with :func:`child_seed`, which mixes the parent seed with a label so that

* runs are reproducible end-to-end from a single top-level seed, and
* sibling components do not share (and therefore do not perturb) each
  other's random streams.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["child_seed", "make_rng"]

_SEED_BITS = 63
_SEED_MASK = (1 << _SEED_BITS) - 1


def child_seed(parent_seed: int, *labels: object) -> int:
    """Derive a child seed from ``parent_seed`` and a sequence of labels.

    The derivation is a SHA-256 hash of the parent seed and the labels'
    ``repr``; it is stable across processes and Python versions (unlike
    ``hash()``, which is salted for strings).

    Parameters
    ----------
    parent_seed:
        The seed of the parent component.
    labels:
        Any number of hashable-by-repr labels identifying the child, e.g.
        ``child_seed(seed, "shard", 3)``.
    """
    digest = hashlib.sha256()
    digest.update(str(int(parent_seed)).encode("ascii"))
    for label in labels:
        digest.update(b"\x1f")
        digest.update(repr(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") & _SEED_MASK


def make_rng(seed: int | None) -> random.Random:
    """Return a fresh ``random.Random`` seeded with ``seed``.

    ``None`` yields an OS-entropy-seeded RNG (non-reproducible); callers
    that care about reproducibility should always pass an integer.
    """
    return random.Random(seed)
