"""Argument-validation helpers with consistent error messages.

The library raises ``ValueError``/``TypeError`` eagerly at API boundaries
so misuse fails at the call site rather than deep inside an update loop.
"""

from __future__ import annotations

__all__ = [
    "check_non_negative",
    "check_positive",
    "check_probability",
]


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_non_negative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value >= 0``."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def check_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
