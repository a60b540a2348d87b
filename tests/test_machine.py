"""The modelled multiprocessor: equivalence, determinism, services."""

import pytest

from repro.core import NS
from repro.parallel import (DISTRIBUTED, AdaptPolicy, ProtocolError,
                            run_parallel)
from repro.parallel.machine import PROTOCOLS, ParallelMachine
from repro.vhdl import (ClockedBody, CombinationalBody, Design, SL_0, SL_1,
                        simulate, simulate_parallel)
from repro.circuits import build_random


def toggle_design():
    d = Design("toggle")
    clk = d.signal("clk", SL_0, traced=True)
    q = d.signal("q", SL_0, traced=True)
    d.clock("clkgen", clk, period_fs=10 * NS, cycles=6)

    def flip(state, inputs, api):
        state["q"] = ~state["q"]
        return {q.lp_id: state["q"]}

    d.process("ff", ClockedBody(clock=clk, inputs=[], outputs=[q],
                                fn=flip, initial_state={"q": SL_0}))
    return d


@pytest.fixture(scope="module")
def toggle_reference():
    return simulate(toggle_design())


class TestEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("processors", [1, 2, 4])
    def test_all_protocols_match_sequential(self, toggle_reference,
                                            protocol, processors):
        res = simulate_parallel(toggle_design(), processors=processors,
                                protocol=protocol, max_steps=200_000)
        assert res.traces == toggle_reference.traces
        assert res.finals == toggle_reference.finals
        # Nobody moves the modelled machine's execution window.
        assert (res.stats.window_stalls, res.stats.window_shrinks,
                res.stats.window_grows) == (0, 0, 0)

    @pytest.mark.parametrize("partition", ["round_robin", "block", "bfs"])
    def test_partitioning_does_not_change_results(self, toggle_reference,
                                                  partition):
        res = simulate_parallel(toggle_design(), processors=3,
                                protocol="optimistic", partition=partition,
                                max_steps=200_000)
        assert res.traces == toggle_reference.traces

    def test_user_consistent_model_matches_too(self, toggle_reference):
        res = simulate_parallel(toggle_design(), processors=2,
                                protocol="optimistic",
                                user_consistent=True, max_steps=200_000)
        assert res.traces == toggle_reference.traces

    def test_lookahead_nulls_match_and_are_counted(self, toggle_reference):
        res = simulate_parallel(toggle_design(), processors=3,
                                protocol="conservative",
                                lookahead="vhdl", max_steps=200_000)
        assert res.traces == toggle_reference.traces
        assert res.stats.null_messages > 0
        # Null messages substitute for (most) global deadlock recovery.

    @pytest.mark.parametrize("protocol", ["optimistic", "conservative"])
    @pytest.mark.parametrize("lookahead", ["bogus", "delays"])
    def test_unknown_lookahead_policy_is_refused_at_construction(
            self, protocol, lookahead):
        # Not at the first null message, and not ignored by a protocol
        # that sends none.
        with pytest.raises(ValueError, match="unknown lookahead policy"):
            ParallelMachine(toggle_design(), 2, protocol=protocol,
                            lookahead=lookahead)

    def test_distributed_cost_model_changes_time_not_results(
            self, toggle_reference):
        cheap = simulate_parallel(toggle_design(), processors=2,
                                  protocol="optimistic",
                                  max_steps=200_000)
        pricey = simulate_parallel(toggle_design(), processors=2,
                                   protocol="optimistic", cost=DISTRIBUTED,
                                   max_steps=200_000)
        assert pricey.traces == cheap.traces == toggle_reference.traces
        assert pricey.parallel_time > cheap.parallel_time


class TestDeterminism:
    def test_same_run_twice_same_makespan(self):
        a = simulate_parallel(toggle_design(), processors=3,
                              protocol="dynamic", max_steps=200_000)
        b = simulate_parallel(toggle_design(), processors=3,
                              protocol="dynamic", max_steps=200_000)
        assert a.parallel_time == b.parallel_time
        assert a.stats.summary() == b.stats.summary()

    def test_random_circuit_deterministic(self):
        a = simulate_parallel(build_random(3).design, processors=4,
                              protocol="optimistic", max_steps=500_000)
        b = simulate_parallel(build_random(3).design, processors=4,
                              protocol="optimistic", max_steps=500_000)
        assert a.parallel_time == b.parallel_time
        assert a.traces == b.traces


class TestOutcome:
    def test_outcome_fields(self):
        res = simulate_parallel(toggle_design(), processors=3,
                                protocol="conservative", max_steps=200_000)
        assert res.processors == 3
        assert res.parallel_time > 0
        assert res.stats.events_committed == res.stats.events_executed
        assert res.stats.deadlock_recoveries >= 0

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            simulate_parallel(toggle_design(), processors=2,
                              protocol="telepathic")

    def test_processor_count_validation(self):
        model = toggle_design().elaborate()
        with pytest.raises(ValueError):
            ParallelMachine(model, 0)

    def test_max_steps_guard(self):
        with pytest.raises(ProtocolError):
            simulate_parallel(toggle_design(), processors=2,
                              protocol="optimistic", max_steps=3)

    def test_until_bounds_simulation(self, toggle_reference):
        res = simulate_parallel(toggle_design(), processors=2,
                                protocol="optimistic", until=25 * NS,
                                max_steps=200_000)
        full = [c for t, c in toggle_reference.traces["q"]
                if t.pt <= 25 * NS]
        assert [c for _, c in res.traces["q"]] == full


class TestConservativeMachine:
    def test_deadlock_recovery_used_without_lookahead(self):
        res = simulate_parallel(build_random(11).design, processors=3,
                                protocol="conservative", max_steps=500_000)
        assert res.stats.deadlock_recoveries > 0
        assert res.stats.rollbacks == 0

    def test_lookahead_reduces_deadlock_recoveries(self):
        bare = simulate_parallel(build_random(11).design, processors=3,
                                 protocol="conservative",
                                 max_steps=500_000)
        nulls = simulate_parallel(build_random(11).design, processors=3,
                                  protocol="conservative",
                                  lookahead="vhdl", max_steps=500_000)
        assert nulls.stats.deadlock_recoveries < \
            bare.stats.deadlock_recoveries
        assert nulls.traces == bare.traces


class TestDynamicMachine:
    def test_dynamic_equivalent_on_random_circuits(self):
        ref = simulate(build_random(21).design)
        res = simulate_parallel(build_random(21).design, processors=4,
                                protocol="dynamic",
                                adapt=AdaptPolicy(window=8, dwell=8,
                                                  blocked_polls_high=4,
                                                  rollback_ratio_high=0.3),
                                max_steps=500_000)
        assert res.traces == ref.traces
