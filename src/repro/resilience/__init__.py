"""Liveness layer shared by all parallel backends.

Watchdogs detect no-progress windows (:mod:`~repro.resilience.watchdog`);
a tripped watchdog — or any diagnosed unrecoverable stall — raises
``ProtocolError`` carrying a :class:`~repro.resilience.report.StallReport`
with the forensic protocol state (virtual-time surface, parked
negatives, withheld-send counts, in-flight traffic) plus partial stats.
"""

from .report import StallReport, build_report, surface
from .watchdog import (DEFAULT_MODEL_STEPS, DEFAULT_WALL_S, FakeClock,
                       StepWatchdog, WallClockWatchdog, resolve_watchdog)

__all__ = [
    "StallReport", "build_report", "surface",
    "StepWatchdog", "WallClockWatchdog", "FakeClock", "resolve_watchdog",
    "DEFAULT_MODEL_STEPS", "DEFAULT_WALL_S",
]
