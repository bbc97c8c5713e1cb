"""Shared utilities: deterministic RNG plumbing, timers, validation.

These helpers are deliberately small and dependency-free so that every
other subpackage can use them without import cycles.
"""

from repro.util.rng import child_seed, make_rng
from repro.util.timer import PhaseTimer
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "child_seed",
    "make_rng",
    "PhaseTimer",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
