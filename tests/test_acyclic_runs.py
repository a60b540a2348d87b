"""A dropped machine or run leaves nothing for the cycle collector.

An elaborated design holds no reference cycle: a process body is handed
its own ``ProcessLP``, and the front end's recursive walkers are
module-level functions, not closures that reach themselves.  The hooks a
modelled machine installs on its processors (``route``, ``cancel_note``,
``ingress``, the fabric's ``machine``) reach it weakly.  So dropping the
result and the design frees every LP by reference count, with the
collector off, and leaves ``gc.collect()`` nothing to find — for an
elaboration alone, the sequential engine, the modelled machine under
every protocol and with a crash plan, and the threads ring; and for a
modelled machine that is constructed and dropped without ``run()``,
under every protocol, with a fault plan and after ``install_jitter``.
"""

import gc
import random
import sys
import weakref
from functools import partial

import pytest

from repro.circuits import (build_dct, build_fsm, build_fsm_from_vhdl,
                            build_iir, build_iir_from_vhdl)
from repro.fabric import install_jitter
from repro.fabric.plan import FaultPlan
from repro.parallel.engine import PROTOCOLS
from repro.parallel.machine import ParallelMachine
from repro.vhdl import EXEC_MODES, lower_design, simulate, \
    simulate_parallel

DESIGNS = {
    "fsm": lambda: build_fsm(cells=3, cycles=3).design,
    "iir": lambda: build_iir(sections=1, width=4, samples=[3]).design,
    "dct": lambda: build_dct(n=2).design,
    "fsm-vhdl": lambda: build_fsm_from_vhdl(cells=3, cycles=4),
    "iir-vhdl": lambda: build_iir_from_vhdl(cycles=4),
}


def _elaborate(design, exec_mode):
    if exec_mode == "compiled":
        lower_design(design)


def _constructed(design, exec_mode, processors=4, jitter=False, **kwargs):
    """A machine constructed and never run; it holds the model, so the
    model's weakref dies only with the machine."""
    _elaborate(design, exec_mode)
    machine = ParallelMachine(design.elaborate(), processors, **kwargs)
    if jitter:
        install_jitter(machine, random.Random(1))
    return machine


RUNS = {
    "elaborate": _elaborate,
    "simulate": lambda design, exec_mode: simulate(
        design, exec_mode=exec_mode),
    **{f"model-p4-{protocol}": (
        lambda design, exec_mode, protocol=protocol: simulate_parallel(
            design, 4, protocol=protocol, exec_mode=exec_mode))
       for protocol in PROTOCOLS},
    "model-p3-crash": lambda design, exec_mode: simulate_parallel(
        design, 3, protocol="mixed", exec_mode=exec_mode,
        fault_plan=FaultPlan(seed=3, drop=0.1).with_crashes((10, 1))),
    "threads-p2": lambda design, exec_mode: simulate_parallel(
        design, 2, protocol="optimistic", backend="threads",
        exec_mode=exec_mode),
    **{f"never-run-{protocol}": partial(_constructed, protocol=protocol)
       for protocol in PROTOCOLS},
    "never-run-faults": partial(
        _constructed, processors=3, protocol="mixed",
        fault_plan=FaultPlan(seed=3, drop=0.1), recovery=True),
    "never-run-jitter": partial(_constructed, jitter=True),
}


@pytest.fixture(scope="module", autouse=True)
def warm_up():
    """One run of each kind first, so lazily built module state is not
    mistaken for what a run leaves behind."""
    for run in RUNS.values():
        for exec_mode in EXEC_MODES:
            run(DESIGNS["fsm"](), exec_mode)


@pytest.fixture
def collector_off():
    # pytest keeps a failed case's exception in ``sys.last_*`` until
    # the next case's call phase, after this fixture has run: dropped
    # here, its traceback's cycles are not counted against this case.
    for name in ("last_type", "last_value", "last_traceback", "last_exc"):
        if hasattr(sys, name):
            delattr(sys, name)
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("case", sorted(RUNS))
@pytest.mark.parametrize("exec_mode", EXEC_MODES)
@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_dropped_run_is_freed_by_reference_count(name, exec_mode, case,
                                                 collector_off):
    design = DESIGNS[name]()
    model = weakref.ref(design.model)
    process = weakref.ref(design.processes[0])
    result = RUNS[case](design, exec_mode)
    del design, result
    assert model() is None
    assert process() is None
    assert gc.collect() == 0
