"""Deterministic fault injection for robustness testing.

A long-lived streaming deployment will be killed mid-stream, its
workers will hang or crash, its disks will hiccup, and its checkpoint
files will rot. This module provides *deterministic* stand-ins for all
of those so the recovery machinery (:mod:`repro.persist`, the worker
supervision in :mod:`repro.core.pipeline`) can be tested without flaky
timing games:

* :func:`kill_at_event` — crash a stream consumer after exactly N events;
* :class:`CrashShard` / :class:`HangShard` — picklable per-shard faults
  for the pipeline's workers (crash or hang on the first K attempts);
* :func:`corrupt_checkpoint` — flip a byte or truncate a checkpoint file;
* :class:`FlakyOpen` — an ``open`` replacement whose first K write-mode
  opens fail, for exercising atomic-write error paths.

Faults deliberately raise :class:`SimulatedCrash` (not a
:class:`~repro.errors.ReproError`): a real crash is not a library error,
and recovery code must not be able to catch it by accident via
``except ReproError``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, TypeVar

__all__ = [
    "SimulatedCrash",
    "kill_at_event",
    "ShardFault",
    "CrashShard",
    "HangShard",
    "corrupt_checkpoint",
    "truncate_file",
    "FlakyOpen",
]

T = TypeVar("T")


class SimulatedCrash(RuntimeError):
    """An injected crash. Deliberately outside the ReproError hierarchy."""


def kill_at_event(
    events: Iterable[T],
    n: int,
    action: Optional[Callable[[], None]] = None,
) -> Iterator[T]:
    """Yield the first ``n`` events of ``events``, then crash.

    By default the crash is a :class:`SimulatedCrash` exception (so tests
    can assert on it); pass ``action=lambda: os._exit(code)`` to simulate
    a hard kill that skips all cleanup, as the CLI smoke test does.
    """
    if n < 0:
        raise ValueError(f"kill index must be >= 0, got {n}")
    for index, event in enumerate(events):
        if index >= n:
            if action is not None:
                action()
            raise SimulatedCrash(f"injected crash at event {n}")
        yield event
    # Stream shorter than n: no fault fires, mirroring a crash that was
    # scheduled after the workload finished.


class ShardFault:
    """Base class for picklable faults injected into shard workers.

    A :class:`~repro.core.pipeline.PipelineClusterer` worker calls
    ``fault(shard, attempt)`` at startup, before it builds its clusterer
    (``attempt`` counts from 1). Subclasses misbehave for their target
    shard on early attempts and return normally afterwards, so bounded
    retry can be exercised deterministically.
    """

    def __call__(self, shard: int, attempt: int) -> None:  # pragma: no cover
        raise NotImplementedError


@dataclass
class CrashShard(ShardFault):
    """Crash the worker for ``shard`` on its first ``fail_attempts`` tries.

    ``hard=True`` kills the process with ``os._exit`` (no exception, no
    result, no cleanup) — the closest stand-in for an OOM kill. The
    default raises :class:`SimulatedCrash`, which the worker wrapper
    reports as a failed attempt.
    """

    shard: int
    fail_attempts: int = 1
    hard: bool = False

    def __call__(self, shard: int, attempt: int) -> None:
        if shard == self.shard and attempt <= self.fail_attempts:
            if self.hard:
                os._exit(86)
            raise SimulatedCrash(
                f"injected crash in shard {shard} (attempt {attempt})"
            )


@dataclass
class HangShard(ShardFault):
    """Hang the worker for ``shard`` on its first ``fail_attempts`` tries.

    The sleep must exceed the supervisor's per-attempt timeout for the
    hang to be observed as one; retries after ``fail_attempts`` proceed
    normally.
    """

    shard: int
    seconds: float = 3600.0
    fail_attempts: int = 1

    def __call__(self, shard: int, attempt: int) -> None:
        if shard == self.shard and attempt <= self.fail_attempts:
            time.sleep(self.seconds)


def corrupt_checkpoint(path, *, offset: Optional[int] = None, xor: int = 0xFF) -> int:
    """Flip one byte of ``path`` in place; returns the corrupted offset.

    ``offset`` defaults to the middle of the file, which for the repro
    checkpoint container lands inside the payload (headers are 22 bytes).
    ``xor=0`` would be a no-op and is rejected.
    """
    if not 1 <= xor <= 0xFF:
        raise ValueError(f"xor must be in [1, 255], got {xor}")
    size = os.path.getsize(path)
    if size == 0:
        raise ValueError(f"cannot corrupt empty file {path!r}")
    if offset is None:
        offset = size // 2
    if not 0 <= offset < size:
        raise ValueError(f"offset {offset} out of range for {size}-byte file")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ xor]))
    return offset


def truncate_file(path, keep: int) -> None:
    """Truncate ``path`` to its first ``keep`` bytes (a torn write)."""
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")
    with open(path, "r+b") as handle:
        handle.truncate(keep)


@dataclass
class FlakyOpen:
    """An ``open`` replacement whose first ``failures`` write-opens fail.

    Read-mode opens always succeed. Patch it over a module's ``open``
    (e.g. ``repro.persist.format``) to verify that a failed checkpoint
    write leaves the previous checkpoint intact.
    """

    failures: int = 1
    raised: int = field(default=0, init=False)

    def __call__(self, path, mode="r", *args, **kwargs):
        if any(flag in mode for flag in "wxa+") and self.raised < self.failures:
            self.raised += 1
            raise OSError(f"injected IO fault ({self.raised}/{self.failures})")
        return open(path, mode, *args, **kwargs)
