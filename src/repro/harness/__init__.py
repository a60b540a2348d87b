"""Conformance harness: trace, controlled schedules, invariants.

The paper's soundness claim — with ``(pt, lt)`` tie-breaking, any
processing order of the events left simultaneous commits the same
results — is only as good as the interleavings the tests actually
execute.  This subsystem makes the claim *checkable*:

* :mod:`~repro.harness.trace` — structured protocol traces behind
  near-zero-cost hooks in the engines and the fabric;
* :mod:`~repro.harness.schedule` — controlled schedulers (canonical /
  seeded-random / replay) plus replayable JSON schedule artifacts;
* :mod:`~repro.harness.invariants` — trace-level safety checkers
  (GVT monotonicity, commit-after-GVT, per-LP commit order, phase
  legality, rollback/antimessage and fabric accounting);
* :mod:`~repro.harness.check` — the exploration driver with the
  sequential-engine differential oracle and failure shrinking.
"""

from .check import (CIRCUITS, Checker, CheckReport, RunReport,
                    build_circuit, check_backend, replay_schedule,
                    wave_digest)
from .invariants import VIOLATION_KINDS, check_all
from .schedule import (DefaultScheduler, RandomScheduler, ReplayScheduler,
                       Schedule, Scheduler, swap_schedule)
from .trace import TraceRecord, Tracer

__all__ = [
    "CIRCUITS", "Checker", "CheckReport", "RunReport", "build_circuit",
    "check_backend", "replay_schedule", "wave_digest",
    "VIOLATION_KINDS", "check_all",
    "DefaultScheduler", "RandomScheduler", "ReplayScheduler", "Schedule",
    "Scheduler", "swap_schedule",
    "TraceRecord", "Tracer",
]
