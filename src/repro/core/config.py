"""Configuration for the streaming graph clusterer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

from repro.core.constraints import ConstraintPolicy, Unconstrained
from repro.util.validation import check_positive, check_probability

__all__ = ["DeletionPolicy", "ClustererConfig", "normalize_config"]


class DeletionPolicy(enum.Enum):
    """How the reservoir compensates for edge deletions.

    * ``RANDOM_PAIRING`` — the paper-faithful default: deletions are
      paired with later insertions (uniform sample, no access to the full
      edge set required).
    * ``RESAMPLE`` — when the sample shrinks below
      ``resample_threshold × capacity``, rebuild it by drawing uniformly
      from the *tracked* full edge set (requires ``track_graph=True``).
      Restores sample size immediately at an O(m) cost — the ablation
      comparator in experiment E9.
    """

    RANDOM_PAIRING = "random_pairing"
    RESAMPLE = "resample"


@dataclass
class ClustererConfig:
    """All knobs of :class:`repro.core.clusterer.StreamingGraphClusterer`.

    Parameters
    ----------
    reservoir_capacity:
        Number of edges the reservoir may hold — the memory budget.
        The paper's headline knob: larger reservoirs give finer-grained,
        higher-quality clusterings at slightly lower throughput.
    constraint:
        Admission policy enforcing cluster-shape properties
        (:mod:`repro.core.constraints`).
    track_graph:
        Keep the full graph in memory. Required for vertex deletions,
        duplicate detection under ``strict``, the RESAMPLE policy, and
        quality metrics against the live graph. Disable for the lean,
        reservoir-only memory mode.
    strict:
        Raise on malformed streams (duplicate edge adds, deletes of
        absent edges). When False such events are counted and ignored.
        Requires ``track_graph`` to be detectable; without tracking,
        malformed edge events raise ``ValueError`` at configuration time
        only if ``strict`` is set.
    deletion_policy / resample_threshold:
        See :class:`DeletionPolicy`.
    seed:
        Master seed; all internal randomness derives from it.
    batch_fast_path:
        Allow ``apply_many`` to use the inlined batch ingestion loop
        (unconstrained random-pairing configurations only). The result is identical either way; disable only to
        force the per-event reference path, e.g. when benchmarking it.
    kernel:
        Which sampling kernel drives batched ingestion. ``"scalar"``
        (default) is the Mersenne-Twister reference path — bit-identical
        to per-event processing and to every previous release.
        ``"numpy"`` processes whole event batches as arrays
        (:mod:`repro.core.batchkernel`) for ~3x batched throughput; its
        PCG64 draws are *distribution*-equivalent, not bit-identical, so
        checkpoints record which kernel wrote them and a run must stick
        with one kernel end to end (see docs/performance.md).
    """

    reservoir_capacity: int
    constraint: ConstraintPolicy = field(default_factory=Unconstrained)
    track_graph: bool = True
    strict: bool = True
    deletion_policy: DeletionPolicy = DeletionPolicy.RANDOM_PAIRING
    resample_threshold: float = 0.5
    seed: int = 0
    batch_fast_path: bool = True
    kernel: str = "scalar"

    def __post_init__(self) -> None:
        check_positive("reservoir_capacity", self.reservoir_capacity)
        check_probability("resample_threshold", self.resample_threshold)
        if not isinstance(self.constraint, ConstraintPolicy):
            raise TypeError(
                "constraint must be a ConstraintPolicy instance, "
                f"got {type(self.constraint).__name__}"
            )
        if not isinstance(self.deletion_policy, DeletionPolicy):
            raise TypeError(
                "deletion_policy must be a DeletionPolicy, "
                f"got {type(self.deletion_policy).__name__}"
            )
        if self.deletion_policy is DeletionPolicy.RESAMPLE and not self.track_graph:
            raise ValueError("DeletionPolicy.RESAMPLE requires track_graph=True")
        if self.strict and not self.track_graph:
            raise ValueError(
                "strict stream validation requires track_graph=True; "
                "set strict=False for the lean memory mode"
            )
        if self.kernel not in ("scalar", "numpy"):
            raise ValueError(
                f"kernel must be 'scalar' or 'numpy', got {self.kernel!r}"
            )


def normalize_config(config: ClustererConfig) -> ClustererConfig:
    """Bring a config pickled by an older release to the current fields.

    Checkpoints embed the pickled dataclass. One written before the
    ``kernel`` field was added unpickles without the attribute (which
    would break attribute access *and* dataclass equality); such a
    checkpoint was by construction written by the scalar kernel. One
    written before a field was retired (the connectivity backend
    choice, which never changed the clustering) still carries it; the
    stale attribute is dropped, so the next checkpoint is written
    without it.
    """
    if not hasattr(config, "kernel"):
        config.kernel = "scalar"
    current = {f.name for f in fields(config)}
    for name in [name for name in vars(config) if name not in current]:
        delattr(config, name)
    return config
