"""Configuration for the streaming graph clusterer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

from repro.core.constraints import ConstraintPolicy, Unconstrained
from repro.util.validation import check_positive

__all__ = ["ClustererConfig", "normalize_config"]


class DeletionPolicy(enum.Enum):
    """Retired: kept only so that older checkpoints unpickle.

    Releases before the policy's retirement pickled a
    ``deletion_policy`` field holding a member of this enum inside every
    checkpointed :class:`ClustererConfig`; without the class, each such
    checkpoint would fail to load. :func:`normalize_config` drops the
    field and refuses ``RESAMPLE``. Random pairing is the only deletion
    handling.
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
        duplicate detection under ``strict``, and quality metrics
        against the live graph. Disable for the lean, reservoir-only
        memory mode.
    strict:
        Raise on malformed streams (duplicate edge adds, deletes of
        absent edges). When False such events are counted and ignored.
        Requires ``track_graph`` to be detectable; without tracking,
        malformed edge events raise ``ValueError`` at configuration time
        only if ``strict`` is set.
    seed:
        Master seed; all internal randomness derives from it.
    kernel:
        Which sampler the batch kernel (:mod:`repro.core.batchkernel`)
        runs. ``"scalar"`` (default) is the Mersenne-Twister reference
        path — bit-identical to per-event processing and to every
        previous release. ``"numpy"`` draws whole runs of sampling
        decisions as arrays for higher batched throughput; its PCG64
        draws are *distribution*-equivalent, not bit-identical, so
        checkpoints record which kernel wrote them and a run must stick
        with one kernel end to end (see docs/performance.md).
    """

    reservoir_capacity: int
    constraint: ConstraintPolicy = field(default_factory=Unconstrained)
    track_graph: bool = True
    strict: bool = True
    seed: int = 0
    kernel: str = "scalar"

    def __post_init__(self) -> None:
        check_positive("reservoir_capacity", self.reservoir_capacity)
        if not isinstance(self.constraint, ConstraintPolicy):
            raise TypeError(
                "constraint must be a ConstraintPolicy instance, "
                f"got {type(self.constraint).__name__}"
            )
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
    written before a field was retired still carries it, and the stale
    attribute is dropped, so the next checkpoint is written without it:
    the connectivity backend choice and ``batch_fast_path`` never
    changed the clustering (the numpy kernel's batch boundaries are not
    part of its checkpoint either), and ``deletion_policy`` /
    ``resample_threshold`` are dropped when the policy was random
    pairing. A config that selected the retired ``RESAMPLE`` policy is
    refused with ``ValueError``: resuming it under random pairing would
    silently change the run.
    """
    if getattr(config, "deletion_policy", None) is DeletionPolicy.RESAMPLE:
        raise ValueError(
            "the configuration selects the retired RESAMPLE deletion policy "
            "(DeletionPolicy.RESAMPLE); this release runs random pairing "
            "only, so resuming it would silently change the run"
        )
    if not hasattr(config, "kernel"):
        config.kernel = "scalar"
    current = {f.name for f in fields(config)}
    for name in [name for name in vars(config) if name not in current]:
        delattr(config, name)
    return config
