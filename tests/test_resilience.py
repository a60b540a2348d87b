"""Liveness watchdogs and stall forensics (repro.resilience).

Two families:

* unit tests for the watchdog primitives and the StallReport builder;
* induced-stall tests — sabotage each backend so it genuinely cannot
  make progress and require that the run *diagnoses* the stall (a
  ``ProtocolError`` carrying a populated :class:`StallReport` and
  partial statistics) within the watchdog bound, rather than hanging
  or committing wrong results.
"""

import pytest

from repro.circuits import build_fsm, build_random
from repro.fabric import FaultPlan
from repro.parallel import run_parallel
from repro.parallel.engine import Processor, ProtocolError
from repro.parallel.machine import ParallelMachine
from repro.parallel.procs import run_procs
from repro.parallel.threads import run_threaded
from repro.resilience import (DEFAULT_MODEL_STEPS, DEFAULT_WALL_S, FakeClock,
                              StallReport, StepWatchdog, WallClockWatchdog,
                              build_report, resolve_watchdog, surface)


def _model(cells=3, cycles=3):
    return build_fsm(cells=cells, cycles=cycles).design.elaborate()


class TestStepWatchdog:
    def test_trips_after_bound_without_progress(self):
        dog = StepWatchdog(10)
        assert not dog.tick("a", position=0)   # marker change: anchor
        assert not dog.tick("a", position=9)
        assert dog.tick("a", position=10)
        assert dog.idle == 10

    def test_progress_resets_the_anchor(self):
        dog = StepWatchdog(10)
        dog.tick("a", position=0)
        assert not dog.tick("b", position=50)  # marker changed
        assert not dog.tick("b", position=59)
        assert dog.tick("b", position=60)

    def test_probe_count_is_the_default_position(self):
        dog = StepWatchdog(3)
        assert not dog.tick("a")
        assert not dog.tick("a")
        assert not dog.tick("a")
        assert dog.tick("a")
        assert dog.probes == 4

    def test_zero_bound_disables(self):
        dog = StepWatchdog(0)
        assert not dog.enabled
        for _ in range(100):
            assert not dog.tick("a", position=10**9)


class TestWallClockWatchdog:
    # All driven by FakeClock: no sleeping, bit-exact thresholds.

    def test_trips_after_wall_time_without_progress(self):
        clock = FakeClock()
        dog = WallClockWatchdog(5.0, clock=clock)
        assert not dog.tick("a")
        clock.advance(4.999)
        assert not dog.tick("a")   # strictly inside the bound
        clock.advance(0.001)
        assert dog.tick("a")       # exactly at the bound
        assert dog.idle_s == pytest.approx(5.0)

    def test_progress_resets_the_clock(self):
        clock = FakeClock()
        dog = WallClockWatchdog(5.0, clock=clock)
        dog.tick("a")
        clock.advance(4.0)
        assert not dog.tick("b")   # marker changed: clock restarts
        clock.advance(4.0)
        assert not dog.tick("b")   # only 4s since the reset
        clock.advance(1.0)
        assert dog.tick("b")

    def test_zero_bound_disables(self):
        clock = FakeClock()
        dog = WallClockWatchdog(0, clock=clock)
        assert not dog.enabled
        clock.advance(1e9)
        assert not dog.tick("a")

    def test_real_clock_is_the_default(self):
        dog = WallClockWatchdog(1e9)
        assert not dog.tick("a")
        assert 0.0 <= dog.idle_s < 60.0


class TestFakeClock:
    def test_advance_is_cumulative(self):
        clock = FakeClock(start=10.0)
        assert clock() == 10.0
        assert clock.advance(2.5) == 12.5
        assert clock() == 12.5

    def test_rejects_going_backwards(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)


class TestResolveWatchdog:
    def test_none_means_default_on(self):
        assert resolve_watchdog(None, DEFAULT_MODEL_STEPS) \
            == DEFAULT_MODEL_STEPS
        assert resolve_watchdog(None, DEFAULT_WALL_S) == DEFAULT_WALL_S

    def test_falsy_disables(self):
        assert resolve_watchdog(0, 100) == 0
        assert resolve_watchdog(0.0, 100) == 0
        assert resolve_watchdog(False, 100) == 0

    def test_positive_is_the_bound(self):
        assert resolve_watchdog(42, 100) == 42
        assert resolve_watchdog(1.5, 30.0) == 1.5


class TestStallReport:
    def test_surface(self):
        lo, hi, width = surface([(5, 1), (3, 0), (9, 2)])
        assert lo == (3, 0)
        assert hi == (9, 2)
        assert width == 6
        assert surface([]) == (None, None, 0)

    def test_build_report_reads_live_processors(self):
        machine = ParallelMachine(_model(), 2, protocol="optimistic")
        report = build_report("model", "test reason", machine.procs,
                              gvt=(0, 0), bound=7,
                              in_flight={"x": 1}, origin=None)
        assert report.backend == "model"
        assert report.reason == "test reason"
        assert report.bound == 7
        assert len(report.lp_clocks) == len(machine.model.lps)
        assert report.vt_min is not None
        assert report.in_flight == {"x": 1}

    def test_describe_renders_every_section(self):
        report = StallReport(
            backend="threads", reason="no progress", gvt=(100, 2),
            bound=30.0, lp_clocks={0: (100, 2), 1: (250, 4)},
            vt_min=(100, 2), vt_max=(250, 4), vt_width=150,
            parked_negatives=[{"proc": 0, "dst": 1, "eid": (3, 7),
                               "time": (120, 3), "origin_epoch": 2}],
            withheld={0: 2}, in_flight={"worker_pending": 5},
            origin=1)
        text = report.describe()
        assert "backend=threads" in text
        assert "no progress" in text
        assert "100fs@2" in text
        assert "width=150fs" in text
        assert "withheld      : 2 (per proc {0: 2})" in text
        assert "eid=(3, 7)" in text
        assert "origin_epoch=2" in text
        assert "worker_pending" in text
        assert "worker 1" in text

    def test_describe_caps_parked_negative_listing(self):
        parked = [{"proc": 0, "dst": 1, "eid": (1, i),
                   "time": (10, 0), "origin_epoch": 0}
                  for i in range(12)]
        report = StallReport(backend="model", reason="r",
                             parked_negatives=parked)
        text = report.describe()
        assert "parked negs   : 12" in text
        assert "... and 4 more" in text


class TestModelStalls:
    def test_watchdog_trips_on_a_spinning_machine(self):
        # act() claims progress but does nothing: GVT and the commit
        # count freeze while steps accumulate — exactly the livelock
        # shape the step watchdog exists for.
        machine = ParallelMachine(_model(), 2, protocol="optimistic",
                                  watchdog=64)
        for proc in machine.procs:
            proc.act = lambda: True
        with pytest.raises(ProtocolError) as caught:
            machine.run()
        report = caught.value.stall_report
        assert report.backend == "model"
        assert "no GVT advance" in report.reason
        assert report.bound == 64
        assert report.lp_clocks
        stats = caught.value.partial_stats
        assert stats.watchdog_stalls == 1
        assert stats.watchdog_probes > 0

    def test_genuine_deadlock_is_diagnosed_with_forensics(self):
        # Disable the machine's stall-recovery mechanisms: this crash
        # on the seed-360472 circuit then runs into a genuine full
        # stall (sends of the dead incarnation, withheld by recovery,
        # pinning GVT with their originators never re-executing) and
        # must diagnose it — with the withheld entries in the report —
        # instead of hanging.
        machine = ParallelMachine(
            build_random(360472).design.elaborate(), 4, protocol="mixed",
            fault_plan=FaultPlan(seed=7, crashes=((380, 1),)))
        machine._flush_withheld_at_gvt = lambda: False
        machine._force_minimum = lambda: False
        with pytest.raises(ProtocolError) as caught:
            machine.run(max_steps=5_000_000)
        report = caught.value.stall_report
        assert report.backend == "model"
        assert "deadlock recovery failed" in report.reason
        assert report.gvt is not None
        assert sum(report.withheld.values()) > 0
        assert caught.value.partial_stats.events_committed > 0

    def test_max_steps_overrun_carries_a_report(self):
        machine = ParallelMachine(_model(), 2, protocol="optimistic")
        with pytest.raises(ProtocolError) as caught:
            machine.run(max_steps=3)
        assert caught.value.stall_report.backend == "model"
        assert "3 steps" in caught.value.stall_report.reason

    def test_healthy_run_records_liveness_stats(self):
        outcome = run_parallel(_model(), 2, protocol="optimistic")
        assert outcome.stats.watchdog_stalls == 0
        assert outcome.stats.watchdog_probes > 0
        assert outcome.stats.vt_spread_samples > 0
        text = outcome.stats.liveness_summary()
        assert "stalls=0" in text

    def test_watchdog_off_still_completes(self):
        outcome = run_parallel(_model(), 2, protocol="optimistic",
                               watchdog=0)
        assert outcome.stats.watchdog_stalls == 0
        assert outcome.stats.watchdog_probes == 0
        # Off means the whole liveness layer: no spread sampling either.
        assert outcome.stats.vt_spread_samples == 0


class _RingStalls:
    """Stall diagnosis on the worker ring; one body, every
    in-host ``WorkerCore`` backend (set ``backend`` and ``run``)."""

    backend = None
    run = None

    def test_stalled_workers_are_diagnosed(self, monkeypatch):
        # No worker ever executes (procs workers inherit the patch
        # through fork): queues stay full, GVT freezes, every worker's
        # wall-clock watchdog trips and the parent surfaces the first
        # report, with forensics, well inside the run deadline.
        monkeypatch.setattr(Processor, "act", lambda self: False)
        with pytest.raises(ProtocolError) as caught:
            self.run(_model(), 2, protocol="optimistic",
                     watchdog_s=0.4, timeout_s=30.0)
        report = caught.value.stall_report
        assert report.backend == self.backend
        assert report.origin in (0, 1)
        assert "no GVT advance" in report.reason
        assert report.bound == pytest.approx(0.4)
        assert report.lp_clocks
        stats = caught.value.partial_stats
        assert stats.watchdog_stalls == 1

    def test_stall_trips_deterministically_under_a_fake_clock(
            self, monkeypatch):
        # Same sabotage, but the workers' watchdogs run on a FakeClock
        # that jumps a full second per probe: the stall window elapses
        # in fake time, so the diagnosis does not depend on how long
        # the host actually takes to spin through the worker loop.
        import repro.parallel.backend as backend_mod

        def fake_watchdog(bound_s):
            clock = FakeClock()
            dog = WallClockWatchdog(bound_s, clock=clock)
            real_tick = dog.tick
            dog.tick = lambda marker: (clock.advance(1.0),
                                       real_tick(marker))[1]
            return dog

        monkeypatch.setattr(backend_mod, "WallClockWatchdog",
                            fake_watchdog)
        monkeypatch.setattr(Processor, "act", lambda self: False)
        with pytest.raises(ProtocolError) as caught:
            self.run(_model(), 2, protocol="optimistic",
                     watchdog_s=3.0, timeout_s=30.0)
        report = caught.value.stall_report
        assert report.backend == self.backend
        assert "no GVT advance" in report.reason
        assert report.bound == pytest.approx(3.0)

    def test_healthy_run_records_liveness_stats(self):
        outcome = self.run(_model(), 2, protocol="optimistic",
                           timeout_s=60.0)
        assert outcome.stats.watchdog_stalls == 0
        assert outcome.stats.watchdog_probes > 0
        assert outcome.stats.vt_spread_samples > 0


class TestThreadsStalls(_RingStalls):
    backend = "threads"
    run = staticmethod(run_threaded)


class TestProcsStalls(_RingStalls):
    backend = "procs"
    run = staticmethod(run_procs)
