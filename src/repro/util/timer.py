"""Monotonic timing helpers used by the benchmark harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["PhaseTimer"]


@dataclass
class PhaseTimer:
    """Accumulates elapsed time per named phase.

    Used by the harness to split, e.g., "sampling" vs "connectivity" time.

    >>> pt = PhaseTimer()
    >>> with pt.phase("setup"):
    ...     _ = list(range(10))
    >>> "setup" in pt.totals
    True
    """

    totals: Dict[str, float] = field(default_factory=dict)

    def phase(self, name: str) -> "_Phase":
        """Return a context manager that accumulates into ``name``."""
        return _Phase(self, name)

    def add(self, name: str, seconds: float) -> None:
        """Manually add ``seconds`` to phase ``name``."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds

    @property
    def total(self) -> float:
        """Sum over all phases."""
        return sum(self.totals.values())


class _Phase:
    def __init__(self, parent: PhaseTimer, name: str) -> None:
        self._parent = parent
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Phase":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._parent.add(self._name, time.perf_counter() - self._start)
