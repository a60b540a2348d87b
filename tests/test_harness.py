"""Conformance harness: traces, schedules, invariants, exploration.

The load-bearing test is the *injected ordering bug*: collapsing the
scheduler's tie key from ``(pt, lt)`` to ``pt`` groups events across
logical phases as "simultaneous", which violates the distributed VHDL
cycle — and the harness must catch it, dump a replayable schedule
artifact, and reproduce the violation from the artifact alone.
"""

import pytest

from repro.config import RunConfig
from repro.core.vtime import VirtualTime
from repro.harness import (Checker, DefaultScheduler, RandomScheduler,
                           ReplayScheduler, Schedule, Scheduler, Tracer,
                           check_all, replay_schedule, swap_schedule,
                           wave_digest)
from repro.harness.invariants import (check_commit_after_gvt,
                                      check_commit_monotonic_per_lp,
                                      check_gvt_monotonic,
                                      check_phase_legality)


def vt(pt, lt):
    return VirtualTime(pt, lt)


# ---------------------------------------------------------------------------
# Trace + scheduler plumbing
# ---------------------------------------------------------------------------
class TestTracer:
    def test_record_and_views(self):
        tracer = Tracer()
        tracer.record("exec", 0, 3, vt(10, 2), kind=1)
        tracer.record("exec", 0, 3, vt(10, 3), kind=2)
        tracer.record("gvt", time=vt(10, 0), gvt=(10, 0), barrier=False)
        assert tracer.count("exec") == 2
        assert len(tracer.of("gvt")) == 1
        assert len(tracer) == 3
        assert "exec=2" in tracer.summary()


class TestSchedulers:
    def test_default_always_canonical(self):
        sched = DefaultScheduler()
        assert [sched.choose("lp", n) for n in (3, 2, 5)] == [0, 0, 0]
        assert sched.signature == ((3, 0), (2, 0), (5, 0))

    def test_random_is_seed_deterministic(self):
        a = RandomScheduler(42)
        b = RandomScheduler(42)
        for n in (4, 4, 7, 2, 9):
            assert a.choose("lp", n) == b.choose("lp", n)
        assert a.signature == b.signature

    def test_replay_follows_recording_then_defaults(self):
        sched = ReplayScheduler([2, 1], ncands=[3, 2])
        assert sched.choose("lp", 3) == 2
        assert sched.choose("event", 2) == 1
        assert sched.choose("lp", 4) == 0  # exhausted -> canonical
        assert sched.divergences == 0

    def test_replay_counts_divergences(self):
        sched = ReplayScheduler([5], ncands=[6])
        assert sched.choose("lp", 2) == 1  # clamped to ncand - 1
        assert sched.divergences == 2  # ncand mismatch + clamp

    def test_swap_schedule_shape(self):
        assert swap_schedule(3, 2) == [0, 0, 0, 2]

    def test_schedule_artifact_roundtrip(self, tmp_path):
        schedule = Schedule(RunConfig(circuit="fsm", circuit_seed=3,
                                      processors=2, protocol="dynamic"),
                            decisions=[0, 2, 1],
                            ncands=[1, 3, 2], wave_digest="abc123")
        path = str(tmp_path / "sched.json")
        schedule.save(path)
        loaded = Schedule.load(path)
        assert loaded == schedule

    def test_schedule_artifact_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            Schedule.load(str(path))


# ---------------------------------------------------------------------------
# Invariant checkers on synthetic traces
# ---------------------------------------------------------------------------
class TestInvariantCheckers:
    def test_gvt_regression_detected(self):
        tracer = Tracer()
        tracer.record("gvt", gvt=(5, 0))
        tracer.record("gvt", gvt=(3, 0))
        assert check_gvt_monotonic(tracer)

    def test_commit_at_or_above_gvt_detected(self):
        tracer = Tracer()
        tracer.record("commit", 0, 1, vt(7, 0), ctx="fossil", gvt=(7, 0))
        assert check_commit_after_gvt(tracer)
        clean = Tracer()
        clean.record("commit", 0, 1, vt(6, 2), ctx="fossil", gvt=(7, 0))
        assert not check_commit_after_gvt(clean)

    def test_commit_order_violation_detected(self):
        tracer = Tracer()
        tracer.record("commit", 0, 4, vt(5, 2), ctx="fossil")
        tracer.record("commit", 0, 4, vt(5, 1), ctx="fossil")
        assert check_commit_monotonic_per_lp(tracer)

    def test_phase_legality(self):
        from repro.core.event import EventKind
        tracer = Tracer()
        tracer.lp_kinds[9] = "SignalLP"
        # SIGNAL_ASSIGN is legal only at phase 0; lt = 1 violates.
        tracer.record("exec", 0, 9, vt(4, 1),
                      kind=int(EventKind.SIGNAL_ASSIGN))
        assert check_phase_legality(tracer)
        clean = Tracer()
        clean.lp_kinds[9] = "SignalLP"
        clean.record("exec", 0, 9, vt(4, 3),
                     kind=int(EventKind.SIGNAL_ASSIGN))
        assert not check_phase_legality(clean)


# ---------------------------------------------------------------------------
# Exploration on the real machine
# ---------------------------------------------------------------------------
class TestExploration:
    @pytest.mark.parametrize("circuit", ["fsm", "random"])
    @pytest.mark.parametrize("protocol", ["optimistic", "dynamic"])
    def test_explored_interleavings_all_clean(self, circuit, protocol):
        checker = Checker(circuit, circuit_seed=5, processors=2,
                          protocol=protocol)
        report = checker.explore(schedules=8, seed=11)
        assert report.ok, report.failures[0].violations
        assert report.distinct >= 8

    def test_conservative_protocol_clean(self):
        checker = Checker("fsm", processors=2, protocol="conservative")
        report = checker.explore(schedules=5, seed=3)
        assert report.ok, report.failures[0].violations

    def test_same_seed_same_interleaving(self):
        checker = Checker("fsm", processors=2)
        a = checker.run_schedule(RandomScheduler(77), "a")
        b = checker.run_schedule(RandomScheduler(77), "b")
        assert a.signature == b.signature
        assert a.digest == b.digest

    def test_trace_is_populated(self):
        checker = Checker("fsm", processors=2)
        from repro.harness.trace import Tracer as T
        from repro.vhdl import simulate_parallel
        from repro.circuits import build_fsm
        tracer = T()
        simulate_parallel(build_fsm(cells=4, cycles=4).design, 2,
                          protocol="dynamic", tracer=tracer,
                          scheduler=DefaultScheduler())
        for action in ("send", "recv", "exec", "commit", "gvt"):
            assert tracer.count(action) > 0, action
        assert tracer.lp_kinds  # LP kinds registered for phase checks


class TestRecordReplay:
    def test_roundtrip_reproduces_waves(self, tmp_path):
        checker = Checker("random", circuit_seed=9, processors=3)
        schedule, run = checker.record()
        assert run.ok, run.violations
        path = str(tmp_path / "recorded.json")
        schedule.save(path)
        replay = replay_schedule(Schedule.load(path))
        assert replay.ok, replay.violations
        assert replay.digest == schedule.wave_digest
        assert replay.signature == run.signature


# ---------------------------------------------------------------------------
# The injected ordering bug
# ---------------------------------------------------------------------------
class TestInjectedOrderingBug:
    @pytest.fixture()
    def broken_tie_key(self, monkeypatch):
        """Collapse 'simultaneous' to pt only: groups span lt phases."""
        monkeypatch.setattr(Scheduler, "tie_key",
                            lambda self, time: time[0])

    def test_bug_is_caught_with_artifact(self, broken_tie_key, tmp_path):
        checker = Checker("fsm", processors=2, protocol="dynamic",
                          artifact_dir=str(tmp_path))
        report = checker.explore(schedules=10, seed=7)
        assert not report.ok
        assert report.artifacts
        # The shrunk artifact replays to a *real* violation (not mere
        # replay-divergence noise).
        schedule = Schedule.load(report.artifacts[0])
        assert schedule.violations
        replay = replay_schedule(schedule)
        real = [v for v in replay.violations
                if not v.startswith("replay-divergence")]
        assert real, replay.violations

    def test_violations_name_the_broken_law(self, broken_tie_key):
        checker = Checker("fsm", processors=2, protocol="dynamic")
        run = checker.run_schedule(RandomScheduler(1), "buggy")
        assert not run.ok
        text = "\n".join(run.violations)
        assert ("commit-order" in text or "phase-legality" in text
                or "oracle-diff" in text or "protocol-error" in text)


class TestWaveDigest:
    def test_digest_matches_identical_runs(self):
        from repro.circuits import build_fsm
        from repro.vhdl import simulate
        a = simulate(build_fsm(cells=4, cycles=4).design)
        b = simulate(build_fsm(cells=4, cycles=4).design)
        assert wave_digest(a) == wave_digest(b)

    def test_digest_differs_for_different_circuits(self):
        from repro.circuits import build_fsm
        from repro.vhdl import simulate
        a = simulate(build_fsm(cells=4, cycles=4).design)
        b = simulate(build_fsm(cells=5, cycles=4).design)
        assert wave_digest(a) != wave_digest(b)
