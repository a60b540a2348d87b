"""Liveness watchdogs: detect no-progress windows, never false-positive.

Two flavours, matching the two notions of time the backends live in:

* :class:`StepWatchdog` — for the deterministic modelled machine, where
  wall clock is meaningless.  It counts *scheduler iterations* since the
  last observable progress (GVT advance or commit-count change).
* :class:`WallClockWatchdog` — for the real-concurrency backends
  (threads/procs/dist), where an iteration count says nothing about
  elapsed time under the GIL or a loaded host.

Both follow the same contract: feed ``tick(marker)`` a progress marker
(any equatable snapshot of "where the run is"); the watchdog returns
True when the marker has not changed for longer than the bound.  The
bounds are deliberately generous — a watchdog that trips on a slow run
is worse than none — and ``0``/``False`` disables entirely.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, Optional, Union

#: Default step bound for the modelled machine.  A healthy run commits
#: or advances GVT every few hundred iterations even on the largest test
#: circuits; half a million idle iterations is a stall, not slowness.
DEFAULT_MODEL_STEPS = 500_000

#: Default wall-clock bound (seconds) for the worker ring.  The tier-1
#: suite's slowest healthy token wave is well under a second.
DEFAULT_WALL_S = 30.0


class StepWatchdog:
    """Trips after ``bound`` steps without the progress marker changing.

    ``tick`` takes the current *position* (the machine's step counter)
    explicitly, so the watchdog can be probed sparsely — e.g. once per
    GVT round — while the bound stays denominated in machine steps.
    When ``position`` is omitted the probe count itself is the position.
    """

    def __init__(self, bound: int) -> None:
        self.bound = int(bound)
        self.enabled = self.bound > 0
        self._marker: Any = object()  # never equal to a real marker
        self._anchor = 0
        self._position = 0
        self.probes = 0

    def tick(self, marker: Any, position: Optional[int] = None) -> bool:
        if not self.enabled:
            return False
        self.probes += 1
        self._position = self.probes if position is None else position
        if marker != self._marker:
            self._marker = marker
            self._anchor = self._position
            return False
        return (self._position - self._anchor) >= self.bound

    @property
    def idle(self) -> int:
        """Steps elapsed since the marker last changed."""
        return self._position - self._anchor


class WallClockWatchdog:
    """Trips when the marker sits unchanged for ``bound_s`` seconds.

    ``clock`` is injectable so induced-stall tests can drive the
    watchdog deterministically with a fake monotonic source instead of
    sleeping through the bound; it defaults to ``time.monotonic``.
    """

    def __init__(self, bound_s: float,
                 clock: Callable[[], float] = _time.monotonic) -> None:
        self.bound = float(bound_s)
        self.enabled = self.bound > 0
        self._clock = clock
        self._marker: Any = object()
        self._since = self._clock()
        self.probes = 0

    def tick(self, marker: Any) -> bool:
        if not self.enabled:
            return False
        self.probes += 1
        now = self._clock()
        if marker != self._marker:
            self._marker = marker
            self._since = now
            return False
        return (now - self._since) >= self.bound

    @property
    def idle_s(self) -> float:
        return self._clock() - self._since


class FakeClock:
    """A manually-advanced monotonic clock for deterministic stall tests.

    Pass ``clock=FakeClock()`` to :class:`WallClockWatchdog` and call
    :meth:`advance` to move time forward — no sleeping, no flakiness.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self.now += seconds
        return self.now


def resolve_watchdog(value: Optional[Union[int, float]],
                     default: Union[int, float]) -> Union[int, float]:
    """Normalize a user-facing ``watchdog=`` argument.

    ``None`` means "on, at the generous default"; ``0`` (or anything
    falsy) disables; a positive number is the bound itself.
    """
    if value is None:
        return default
    if not value:
        return 0
    return value
