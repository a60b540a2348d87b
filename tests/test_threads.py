"""Real-thread backend: concurrency demonstration with exact results.

Timing policy: no magic wall-clock sleeps.  Every run gets one
*deadline budget*, derived from ``REPRO_TEST_TIMEOUT_S`` (default
120 s — generous on purpose: the budget is a hang detector, not a
performance assertion) and handed to the backend, whose internal
barrier waits are themselves derived from that same deadline (see
``ThreadedMachine._barrier_timeout``).  A deadline overrun surfaces
the run's ``partial_stats`` so CI logs show *where* the machine
stopped instead of a bare timeout.
"""

import os

import pytest

from repro.circuits import build_fsm, build_random
from repro.parallel.engine import ProtocolError
from repro.parallel.threads import ThreadedMachine, run_threaded
from repro.vhdl import simulate

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
    # The execution window belongs to ``WorkerCore`` (procs, dist).
    stats = outcome.stats
    assert (stats.window_stalls, stats.window_shrinks,
            stats.window_grows) == (0, 0, 0)


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
