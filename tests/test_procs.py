"""Multiprocess backend: real parallelism with exact results.

Differential policy mirrors ``tests/test_threads.py``: every procs run
is compared against a fresh sequential run of the same circuit and the
committed waves must be **byte-identical** — same traces, same commit
count.  The backend schedules for real (the OS interleaves worker
processes), so each CI run exercises a new interleaving for free.

Timing policy: one deadline budget per run, from
``REPRO_TEST_TIMEOUT_S`` (default 120 s; a hang detector, not a
performance assertion).  Overruns surface ``partial_stats`` so logs
show where the machine stopped.

The full fsm/iir/dct x protocol matrix is expensive (tens of seconds
of real multi-process simulation), so only the small-fsm matrix runs
in tier-1; the rest is marked ``slow`` (``pytest -m slow`` runs it).
"""

import multiprocessing
import os

import pytest

from repro.circuits import build_dct, build_fsm, build_iir, build_random
from repro.fabric.plan import FaultPlan
from repro.parallel.engine import ProtocolError
from repro.parallel.procs import (START_ENV, ProcsMachine,
                                  resolve_start_method)
from repro.vhdl import simulate

RUN_BUDGET_S = float(os.environ.get("REPRO_TEST_TIMEOUT_S", "120"))

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="procs backend requires the fork start method")

needs_spawn = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="platform does not offer the spawn start method")


@pytest.fixture
def machine():
    """The ``WorkerCore`` machine under test.  ``tests/test_threads.py``
    re-runs the shared-core tests below with ``ThreadedMachine``."""
    return ProcsMachine


def run_with_budget(model, processors, protocol, machine=ProcsMachine,
                    timeout_s=RUN_BUDGET_S, **kwargs):
    """Run ``machine`` (``ProcsMachine`` or a subclass) under the
    module's deadline budget."""
    try:
        return machine(model, processors, protocol=protocol,
                       **kwargs).run(timeout_s=timeout_s)
    except ProtocolError as failure:
        partial = getattr(failure, "partial_stats", None)
        detail = ""
        if partial is not None:
            detail = (f" (partial progress: "
                      f"{partial.events_committed} committed, "
                      f"{partial.events_executed} executed, "
                      f"{partial.rollbacks} rollbacks)")
        pytest.fail(f"{machine.backend_name} run failed within "
                    f"{timeout_s:.0f}s budget: {failure}{detail}")


def assert_matches_sequential(build, protocol, processors=3, **kwargs):
    """One differential check: the machine's waves == sequential waves."""
    ref_circuit = build()
    ref = simulate(ref_circuit.design)
    circuit = build()
    outcome = run_with_budget(circuit.design.elaborate(), processors,
                              protocol, **kwargs)
    traces = {s.name: s.trace() for s in circuit.design.signals
              if s.traced}
    assert traces == ref.traces
    assert outcome.stats.events_committed == ref.stats.events_committed
    return outcome


# ---------------------------------------------------------------------------
# Tier-1: small circuits, every protocol, faults, crashes.
# ---------------------------------------------------------------------------
@needs_fork
@pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                      "mixed"])
def test_procs_fsm_matches_sequential(protocol):
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), protocol)
    assert outcome.waves >= 1
    assert outcome.gvt_rounds >= 1
    assert outcome.stats.ipc_batches >= 1
    # Batching amortizes: strictly more events than envelopes overall
    # would be circuit-dependent, but the counters must be consistent.
    assert outcome.stats.ipc_events >= 0
    assert outcome.wall_time_s > 0.0


@needs_fork
def test_procs_random_logic_optimistic():
    assert_matches_sequential(lambda: build_random(13), "optimistic")


@needs_fork
def test_procs_fault_plan_drop_reorder(machine):
    """Lossy, duplicating, reordering fabric; results still exact."""
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "optimistic",
        machine=machine,
        fault_plan=FaultPlan(drop=0.08, duplicate=0.05, reorder=0.08,
                             seed=7))
    stats = outcome.stats
    assert stats.dropped > 0
    assert stats.retransmitted > 0
    assert stats.dedup_dropped > 0 or stats.reorder_buffered > 0
    assert stats.acks > 0


@needs_fork
def test_procs_worker_crash_recovery(machine):
    """A worker loses its volatile state mid-run and recovers from its
    checkpoint + peers' journal replay; waves stay exact."""
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "optimistic",
        machine=machine,
        fault_plan=FaultPlan(seed=11).with_crashes((2, 1)))
    assert outcome.stats.crashes == 1
    assert outcome.stats.recoveries == 1
    # ``replayed > 0`` is asserted by the next test, where it is owed:
    # here the OS decides where the crash lands, and workers that bound
    # their optimism often wait for a commit with their links drained,
    # so the victim's peers may hold nothing above its checkpoint.


def mixed_into(machine, mixin):
    """``mixin`` over ``machine``: the hand-made worker of one test."""
    return type(mixin.__name__, (mixin, machine), {})


class CrashAfterDelivery:
    """A scheduled crash is held back until the victim has delivered
    input beyond its last checkpoint's horizon: wherever the OS lets
    the notice land, a peer then provably owes a journal replay."""

    _doomed = False

    def _dispatch_inner(self, envelope):
        if envelope[0] == "die":
            self._doomed = True
            return True
        handled = super()._dispatch_inner(envelope)
        if self._doomed:
            _sent, floors = self._ckpt_marks
            _sent, expected = self.endpoint.checkpoint_marks()
            if any(mark > floors.get(src, 0)
                   for src, mark in expected.items()):
                self._doomed = False
                self._crash()
        return handled


@needs_fork
def test_procs_crash_replays_the_peers_journal(machine):
    """End to end on real workers: a crash rewinds the victim's
    delivery horizons to its checkpoint, and what it had delivered
    since comes back from the senders' journals."""
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "optimistic",
        machine=mixed_into(machine, CrashAfterDelivery),
        fault_plan=FaultPlan(seed=11).with_crashes((2, 1)))
    assert outcome.stats.crashes == 1
    assert outcome.stats.recoveries == 1
    assert outcome.stats.replayed > 0


# ---------------------------------------------------------------------------
# Bounded optimism: the GVT + delta execution window (ISSUE 16).
# ---------------------------------------------------------------------------
@needs_fork
def test_procs_gate_iir_optimistic_is_bounded(machine):
    """The former rollback storm: gate-level iir + optimistic executed
    11-16 events per committed one (11-23 s) before workers bounded
    their optimism; the window keeps it near 1.3 (under 2 s)."""
    outcome = assert_matches_sequential(build_iir, "optimistic",
                                        processors=2, timeout_s=30,
                                        machine=machine)
    stats = outcome.stats
    assert stats.events_executed <= 3 * stats.events_committed
    assert stats.window_stalls > 0


class ClosedWindow:
    """Delta pinned at 0, the tightest window: every worker executes
    only what lies at the committed GVT's physical time."""

    def _resize_window(self, executed, wasted, bound, gvt):
        return 0


@needs_fork
@pytest.mark.parametrize("protocol", ["optimistic", "mixed",
                                      "conservative"])
def test_procs_closed_window_is_live(machine, protocol):
    """Any delta >= 0 is live: the globally lowest unprocessed event is
    what the next wave commits, and it then lies inside every window."""
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), protocol, processors=2,
        machine=mixed_into(machine, ClosedWindow))
    assert outcome.stats.window_grows == 0
    assert outcome.stats.window_stalls > 0


@needs_fork
def test_procs_rejects_dynamic():
    model = build_random(1).design.elaborate()
    with pytest.raises(ValueError):
        ProcsMachine(model, 2, protocol="dynamic")


@needs_fork
def test_procs_crash_schedule_requires_recovery():
    model = build_random(1).design.elaborate()
    plan = FaultPlan(seed=1).with_crashes((1, 0))
    with pytest.raises(ValueError):
        ProcsMachine(model, 2, protocol="optimistic", fault_plan=plan,
                     recovery=False)


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc to count open descriptors in")
def test_a_kept_machine_holds_no_descriptor_of_its_runs():
    """``run()`` closes every pipe and queue it opened, so machines a
    caller keeps do not keep their runs' descriptors."""
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    def machine():
        return ProcsMachine(build_fsm(cells=4, cycles=2).design.elaborate(),
                            2, protocol="conservative")

    run_with_budget(machine().model, 2, "conservative")  # warm-up
    before = open_fds()
    kept = []
    for _ in range(10):
        kept.append(machine())
        kept[-1].run(timeout_s=RUN_BUDGET_S)
    assert open_fds() == before


# ---------------------------------------------------------------------------
# Spawn start method: workers rebuild from the pickled pristine model.
# ---------------------------------------------------------------------------
def test_start_method_resolution(monkeypatch):
    """Explicit argument > REPRO_PROCS_START env > platform default."""
    monkeypatch.delenv(START_ENV, raising=False)
    available = multiprocessing.get_all_start_methods()
    default = resolve_start_method()
    assert default == ("fork" if "fork" in available else "spawn")
    assert resolve_start_method("spawn") == "spawn"
    monkeypatch.setenv(START_ENV, "spawn")
    assert resolve_start_method() == "spawn"
    assert resolve_start_method(default) == default  # arg wins
    with pytest.raises(ValueError):
        resolve_start_method("warp-drive")


@needs_spawn
def test_procs_spawn_fsm_matches_sequential():
    """The acceptance run: differential conformance without fork.

    Workers receive the pristine pickled model plus the machine
    parameters and rebuild locally; committed waves must still be
    byte-identical to the sequential oracle.
    """
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "optimistic",
        start_method="spawn")
    assert outcome.stats.ipc_batches >= 1


@needs_spawn
def test_procs_spawn_env_override(monkeypatch):
    monkeypatch.setenv(START_ENV, "spawn")
    assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "conservative",
        processors=2)


@needs_spawn
def test_spawn_rejects_unpicklable_partition():
    """A bare callable partition cannot cross a spawn boundary; the
    machine must say so at construction, not hang in a worker."""
    model = build_fsm(cells=4, cycles=4).design.elaborate()
    with pytest.raises(ValueError, match="partition"):
        ProcsMachine(model, 2, protocol="optimistic",
                     start_method="spawn",
                     partition=lambda m, p: [0] * len(m))


@needs_spawn
@pytest.mark.slow
@pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                      "mixed"])
def test_procs_spawn_protocol_matrix(protocol):
    assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), protocol,
        start_method="spawn")


@needs_spawn
@pytest.mark.slow
def test_procs_spawn_fault_plan():
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "optimistic",
        start_method="spawn",
        fault_plan=FaultPlan(drop=0.08, duplicate=0.05, reorder=0.08,
                             seed=7))
    assert outcome.stats.dropped > 0


# ---------------------------------------------------------------------------
# Slow matrix: the paper's benchmark circuits under every protocol.
# ---------------------------------------------------------------------------
@needs_fork
@pytest.mark.slow
@pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                      "mixed"])
def test_procs_iir_matches_sequential(protocol):
    assert_matches_sequential(lambda: build_iir(sections=2), protocol)


@needs_fork
@pytest.mark.slow
@pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                      "mixed"])
def test_procs_dct_matches_sequential(protocol):
    assert_matches_sequential(lambda: build_dct(n=4), protocol)


@needs_fork
@pytest.mark.slow
def test_procs_fault_plan_on_dct():
    assert_matches_sequential(
        lambda: build_dct(n=4), "optimistic",
        fault_plan=FaultPlan(drop=0.05, reorder=0.05, seed=3))
