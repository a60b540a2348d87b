"""One description of a ring run, one constructor.

``RingSpec`` is what every ring backend — threads, procs, dist — is
built from, wherever the worker lives.  A configuration is rejected by
the same code with the same words on all three, and a worker that
rebuilds its engine from ``(pristine_payload(model), RingSpec)`` (a
spawned procs worker, a dist daemon) gets the engine a forked worker
inherits — built by the engine builder alone, never by constructing
the modelled machine.  The CI spawn job runs this file under
``REPRO_PROCS_START=spawn``.
"""

import multiprocessing

import pytest

from repro.circuits import build_fsm, build_random
from repro.fabric.plan import FaultPlan
from repro.parallel.backend import RingSpec, pristine_payload
from repro.parallel.dist import DistMachine, _DistWorkerCore
from repro.parallel.machine import ParallelMachine
from repro.parallel.procs import ProcsMachine, _rebuild
from repro.parallel.threads import ThreadedMachine
from repro.vhdl import simulate

MACHINES = [ThreadedMachine, ProcsMachine, DistMachine]

needs_spawn = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="platform does not offer the spawn start method")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform does not offer the fork start method")


@pytest.fixture(scope="module")
def model():
    return build_random(1).design.elaborate()


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("bad", [
    dict(protocol="dynamic"),
    dict(fault_plan=FaultPlan(seed=1).with_crashes((1, 0)), recovery=False),
    dict(fault_plan=FaultPlan(seed=1).with_crashes((2, 5))),
    dict(fault_plan=FaultPlan(seed=1).with_crashes((2, -1))),
], ids=["dynamic", "crash-without-recovery", "crash-victim-too-high",
        "crash-victim-negative"])
def test_every_backend_rejects_it_in_the_spec_s_words(model, machine, bad):
    with pytest.raises(ValueError) as at_the_site:
        RingSpec(2, **bad)
    with pytest.raises(ValueError) as from_machine:
        machine(model, 2, **bad)
    assert str(from_machine.value) == str(at_the_site.value)


@pytest.mark.parametrize("machine", MACHINES)
def test_an_absent_crash_victim_is_refused_in_the_model_s_words(model,
                                                                machine):
    """The modelled machine's ``kill`` says ``no processor N``; a ring
    says it too, before any worker starts."""
    plan = FaultPlan(seed=1).with_crashes((2, 5))
    with pytest.raises(ValueError, match=r"^no processor 5$"):
        machine(model, 2, fault_plan=plan)


@pytest.mark.parametrize("machine", MACHINES)
def test_the_deadline_is_the_spec_s_too(model, machine):
    with pytest.raises(ValueError, match="timeout_s must be positive"):
        machine(model, 2).run(timeout_s=0.0)
    # ... and run()'s alone: not a constructor parameter.
    with pytest.raises(TypeError, match="timeout_s"):
        machine(model, 2, timeout_s=5.0)


def test_threads_takes_the_whole_spec_and_no_start_method(model):
    assert ThreadedMachine(model, 2, until=3).spec.until == 3
    with pytest.raises(TypeError, match="start_method"):
        ThreadedMachine(model, 2, start_method="fork")


@needs_spawn
def test_unshippable_partition_same_words_on_spawn_and_dist(model):
    def local(model, processors):  # a closure: not picklable by ref
        return {lp.lp_id: 0 for lp in model.lps}

    messages = set()
    for build in (lambda: ProcsMachine(model, 2, partition=local,
                                       start_method="spawn"),
                  lambda: DistMachine(model, 2, partition=local)):
        with pytest.raises(ValueError, match="partition") as raised:
            build()
        messages.add(str(raised.value))
    assert len(messages) == 1


def seeded(engine):
    """Placement and every LP's queue head, in comparable form."""
    heads = {}
    for lp_id, runtime in engine.runtimes.items():
        head = runtime.head()
        heads[lp_id] = head and (head.time, head.kind, head.dst, head.src,
                                 head.sign, head.eid)
    return engine.placement, heads


@pytest.mark.parametrize("partition", ["round_robin", "bfs"])
def test_a_rebuilt_worker_has_the_machine_a_forked_one_inherits(partition):
    def fresh():
        return build_fsm(cells=4, cycles=4).design.elaborate()

    ring = dict(protocol="mixed", partition=partition, until=10 ** 9)
    # What a fork child inherits (threads build it the same way).
    inherited = seeded(ThreadedMachine(fresh(), 3, **ring).engine)
    assert any(head for head in inherited[1].values())

    spec = RingSpec(3, **ring)
    payload = pristine_payload(fresh(), spec.partition)
    assert seeded(_rebuild(payload, spec).engine) == inherited
    assert seeded(_DistWorkerCore((payload, spec), None).engine) == inherited
    # A procs parent that will not fork ships exactly that pair.
    parent = ProcsMachine(fresh(), 3, **ring)
    if parent.start_method != "fork":
        assert parent.spec == spec
        assert seeded(_rebuild(parent._payload, parent.spec).engine) \
            == inherited
    assert seeded(parent.engine) == inherited


@needs_fork
def test_a_ring_run_never_constructs_the_modelled_machine(monkeypatch):
    """Threads, forked and spawned procs workers and dist daemons build
    their engines without ``ParallelMachine``: with its constructor
    refusing, every one of them still builds, and the runs still commit
    the sequential oracle's waves."""
    def refused(*_args, **_kwargs):
        raise AssertionError("a ring backend built the modelled machine")

    monkeypatch.setattr(ParallelMachine, "__init__", refused)

    def fresh():
        return build_fsm(cells=4, cycles=4)

    oracle = simulate(fresh().design)
    for machine, start in ((ThreadedMachine, {}),
                           (ProcsMachine, {"start_method": "fork"})):
        circuit = fresh()
        outcome = machine(circuit.design.elaborate(), 2, protocol="mixed",
                          **start).run(timeout_s=60.0)
        assert {s.name: s.trace() for s in circuit.design.signals
                if s.traced} == oracle.traces
        assert outcome.stats.events_committed \
            == oracle.stats.events_committed
    spec = RingSpec(2, protocol="mixed")
    payload = pristine_payload(fresh().design.elaborate(), spec.partition)
    assert seeded(_rebuild(payload, spec).engine) \
        == seeded(_DistWorkerCore((payload, spec), None).engine)
