"""In-process backend: workers take turns in one thread, exactly.

The threads backend is the ``WorkerCore`` ring over in-process inboxes,
its workers resumed round-robin in the caller's thread, so beside its
own differential runs it joins the shared-core matrix of
``tests/test_procs.py`` (hostile fabric, crash recovery, journal
replay, the closed-window liveness cases, bounded optimism on the
gate-level iir): those tests are imported and re-run here with the
``machine`` fixture overridden.  What is particular to threads is
tested below them: no thread outlives ``run()``, nothing is pickled,
workers sharing the live LP runtimes stay oracle-identical, and a run
is a pure function of its inputs.

Timing policy: no magic wall-clock sleeps.  Every run gets one
*deadline budget*, derived from ``REPRO_TEST_TIMEOUT_S`` (default
120 s — generous on purpose: the budget is a hang detector, not a
performance assertion) and handed to the backend.  A deadline overrun
surfaces the run's ``partial_stats`` so CI logs show *where* the
machine stopped instead of a bare timeout.
"""

import os
import threading
from dataclasses import asdict

import pytest

from repro.circuits import build_fsm, build_random
from repro.core import NS
from repro.fabric.plan import FaultPlan
from repro.parallel.engine import Processor, ProtocolError
from repro.parallel.procs import START_ENV
from repro.parallel.threads import ThreadedMachine, run_threaded
from repro.vhdl import CombinationalBody, Design, SL_0, SL_1, simulate

from tests import test_procs as ring
from tests.strategies import HOSTILE
from tests.test_kernel_semantics import pulse_stim

#: One deadline budget for every threaded run in this module,
#: overridable for slow or instrumented CI environments.
RUN_BUDGET_S = float(os.environ.get("REPRO_TEST_TIMEOUT_S", "120"))


def run_with_budget(model, processors, protocol, **kwargs):
    """Run the threaded backend under the module's deadline budget.

    A deadline overrun (ProtocolError with ``partial_stats`` attached,
    per the PR-1 hardening) fails the test with a diagnostic summary
    instead of propagating an opaque exception.
    """
    try:
        return run_threaded(model, processors=processors,
                            protocol=protocol, timeout_s=RUN_BUDGET_S,
                            **kwargs)
    except ProtocolError as failure:
        partial = getattr(failure, "partial_stats", None)
        detail = ""
        if partial is not None:
            detail = (f" (partial progress: "
                      f"{partial.events_committed} committed, "
                      f"{partial.events_executed} executed, "
                      f"{partial.rollbacks} rollbacks)")
        pytest.fail(f"threaded run failed within {RUN_BUDGET_S:.0f}s "
                    f"budget: {failure}{detail}")


@pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                      "mixed"])
def test_threaded_matches_sequential(protocol):
    ref_circuit = build_random(13)
    ref = simulate(ref_circuit.design)
    circuit = build_random(13)
    model = circuit.design.elaborate()
    outcome = run_with_budget(model, processors=3, protocol=protocol)
    traces = {s.name: s.trace() for s in circuit.design.signals
              if s.traced}
    assert traces == ref.traces
    assert outcome.stats.events_committed == ref.stats.events_committed
    assert outcome.gvt_rounds >= 1
    # Thread workers bound their optimism like every ``WorkerCore``
    # worker: the window starts closed, so the first look beyond
    # physical time zero is refused and counted.
    assert outcome.stats.window_stalls > 0


def test_threaded_fsm():
    ref_c = build_fsm(cells=6, cycles=6)
    ref = simulate(ref_c.design)
    circuit = build_fsm(cells=6, cycles=6)
    outcome = run_with_budget(circuit.design.elaborate(), processors=4,
                              protocol="optimistic")
    assert outcome.stats.events_committed == ref.stats.events_committed
    taps = [t.effective for t in circuit.taps]
    assert taps == [t.effective for t in ref_c.taps]


def test_threaded_rejects_dynamic():
    model = build_random(1).design.elaborate()
    with pytest.raises(ValueError):
        ThreadedMachine(model, 2, protocol="dynamic")


# ---------------------------------------------------------------------------
# The shared WorkerCore matrix, on threads.
# ---------------------------------------------------------------------------
@pytest.fixture
def machine():
    return ThreadedMachine


test_threads_hostile_fabric = ring.test_procs_fault_plan_drop_reorder
test_threads_worker_crash_recovery = ring.test_procs_worker_crash_recovery
test_threads_crash_replays_the_peers_journal = \
    ring.test_procs_crash_replays_the_peers_journal
test_threads_closed_window_is_live = ring.test_procs_closed_window_is_live
test_threads_gate_iir_optimistic_is_bounded = \
    ring.test_procs_gate_iir_optimistic_is_bounded


# ---------------------------------------------------------------------------
# Particular to threads.
# ---------------------------------------------------------------------------
def test_no_thread_outlives_run(monkeypatch):
    """Success, a diagnosed stall and a deadline overrun all leave the
    process with the threads it had: the workers are turns of the
    caller's thread, and ``run()`` closes those left on its way out."""
    baseline = threading.active_count()

    def model():
        return build_fsm(cells=6, cycles=10).design.elaborate()

    run_with_budget(model(), 3, "optimistic")
    assert threading.active_count() == baseline

    with pytest.raises(ProtocolError, match="deadline"):
        ThreadedMachine(model(), 3).run(timeout_s=0.01)
    assert threading.active_count() == baseline

    monkeypatch.setattr(Processor, "act", lambda self: False)
    with pytest.raises(ProtocolError) as caught:
        run_threaded(model(), 3, watchdog_s=0.2, timeout_s=30.0)
    assert caught.value.stall_report is not None
    assert threading.active_count() == baseline


def test_nothing_is_pickled_whatever_the_start_method(monkeypatch):
    """Lambda bodies and a generator stimulus cannot cross a spawn
    boundary; the threads backend has none to cross, even when the
    environment asks the procs backend to spawn."""
    monkeypatch.setenv(START_ENV, "spawn")

    def build():
        design = Design("chain")
        a = design.signal("a", SL_0, traced=True)
        b = design.signal("b", SL_0, traced=True)
        c = design.signal("c", SL_0, traced=True)
        design.process("buf1", CombinationalBody([a], [b], lambda v: ~v))
        design.process("buf2", CombinationalBody([b], [c], lambda v: ~v))
        design.stimulus(
            "stim", pulse_stim(a, [(SL_1, 1 * NS), (SL_0, 3 * NS),
                                   (SL_1, 4 * NS)]), drives=[a])
        return design

    reference = simulate(build())
    design = build()
    outcome = run_with_budget(design.elaborate(), 2, "mixed")
    assert {s.name: s.trace() for s in design.signals} == reference.traces
    assert outcome.stats.events_committed \
        == reference.stats.events_committed


def test_shared_runtimes_stay_exact_under_a_hostile_scheduler():
    """Workers read their peers' live ``mode``/``cons_epoch`` between
    the peers' turns (procs workers hold replicas).  Four workers,
    conservative and optimistic LPs side by side and a crash that bumps
    epochs mid-run: a stale read that let a conservative LP trust a dead
    promise would commit a wrong wave."""
    reference = simulate(build_random(42).design)
    for seed in (1, 2, 3):
        circuit = build_random(42)
        plan = FaultPlan(seed=seed, drop=0.02).with_crashes((3, 2))
        outcome = run_with_budget(circuit.design.elaborate(), 4,
                                  "mixed", fault_plan=plan)
        traces = {s.name: s.trace() for s in circuit.design.signals
                  if s.traced}
        assert traces == reference.traces
        assert outcome.stats.recoveries == 1


def test_a_run_is_a_pure_function_of_its_inputs():
    """Workers take turns in index order and never wait on a peer, so
    under a hostile fabric and a crash two runs of one model and spec
    count the same statistics, waves and commits, not only the same
    traces."""
    def run():
        circuit = build_random(42)
        plan = FaultPlan(seed=5, **HOSTILE).with_crashes((3, 2))
        outcome = run_with_budget(circuit.design.elaborate(), 4,
                                  "mixed", fault_plan=plan)
        traces = {s.name: s.trace() for s in circuit.design.signals
                  if s.traced}
        return (asdict(outcome.stats), outcome.waves, outcome.gvt_rounds,
                traces)

    first = run()
    assert first[0]["recoveries"] == 1
    assert first[0]["dropped"] > 0
    assert run() == first
