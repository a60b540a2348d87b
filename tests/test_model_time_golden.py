"""Model time is pinned exactly, in tier-1.

The modelled machine has two clocks.  Host wall may move with every
engine change; *model* time — makespan and the protocol counters that
drive it — is the paper's result and must not move unless a change
says so and regenerates this file.  ``tests/data/model_time_golden.json``
holds, for the eight ``model-p4`` benchmark cells and the six model-time
guard cells at P=1 and P=4, the numbers the engine produced before
``Processor`` readiness bookkeeping was made O(touched LPs) (ISSUE 13);
every later commit must reproduce them bit for bit.

Regenerate (only for a change that is *allowed* to move model time)::

    PYTHONPATH=src python tests/test_model_time_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.circuits import (build_dct, build_fsm, build_fsm_from_vhdl,
                            build_iir_from_vhdl)
from repro.harness.check import build_circuit
from repro.vhdl import simulate_parallel

GOLDEN = Path(__file__).parent / "data" / "model_time_golden.json"

PROTOCOLS = ("optimistic", "conservative", "mixed", "dynamic")
COUNTERS = ("events_executed", "rollbacks", "blocked_polls", "gvt_rounds",
            "antimessages")

#: Design builders, shared between cells so each is built once.
DESIGNS = {
    "fsm-gate-46x4": lambda: build_fsm(cells=46, cycles=4).design,
    "fsm-vhdl-8x32": lambda: build_fsm_from_vhdl(8, 32),
    "dct-gate-2": lambda: build_dct(n=2).design,
    "fsm-vhdl-8x16": lambda: build_fsm_from_vhdl(8, 16),
    "fsm-gate-46x2": lambda: build_fsm(cells=46, cycles=2).design,
    "fsm-gate-12x8": lambda: build_fsm(cells=12, cycles=8).design,
    "iir-vhdl-2x8x24": lambda: build_iir_from_vhdl(chans=2, sections=8,
                                                   cycles=24),
    "random-full-0": lambda: build_circuit("random-full", 0),
}

#: (label, design, protocol, exec mode): the ``model-p4`` cells, then
#: the guard cell of each other benchmark workload.
CELLS = (
    [(f"fsm-gate/{p}", "fsm-gate-46x4", p, "interp") for p in PROTOCOLS]
    + [(f"fsm-vhdl/{p}", "fsm-vhdl-8x32", p, "compiled")
       for p in PROTOCOLS]
    + [("guard/dct-gate/mixed", "dct-gate-2", "mixed", "interp"),
       ("guard/fsm-vhdl/optimistic", "fsm-vhdl-8x16", "optimistic",
        "compiled"),
       ("guard/fsm-gate/optimistic", "fsm-gate-46x2", "optimistic",
        "interp"),
       ("guard/fsm-gate-small/conservative", "fsm-gate-12x8",
        "conservative", "interp"),
       ("guard/iir-vhdl/optimistic", "iir-vhdl-2x8x24", "optimistic",
        "compiled"),
       ("guard/random-full/dynamic", "random-full-0", "dynamic",
        "interp")])

_artifacts = {}


def measure(design: str, protocol: str, exec_mode: str,
            processors: int) -> dict:
    if design not in _artifacts:
        _artifacts[design] = DESIGNS[design]().artifact()
    result = simulate_parallel(_artifacts[design], processors,
                               protocol=protocol, backend="model",
                               exec_mode=exec_mode)
    row = {"makespan": result.parallel_time}
    row.update((name, getattr(result.stats, name)) for name in COUNTERS)
    return row


@pytest.mark.parametrize("processors", (1, 4))
@pytest.mark.parametrize("label,design,protocol,exec_mode", CELLS,
                         ids=[cell[0] for cell in CELLS])
def test_model_time_is_pinned(label, design, protocol, exec_mode,
                              processors):
    golden = json.loads(GOLDEN.read_text())
    # Exact comparison, floats included: JSON round-trips a Python
    # float through repr, and model time is a deterministic sum.
    assert measure(design, protocol, exec_mode, processors) \
        == golden[f"{label}@P{processors}"]


if __name__ == "__main__":
    rows = {f"{label}@P{p}": measure(design, protocol, exec_mode, p)
            for label, design, protocol, exec_mode in CELLS
            for p in (1, 4)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")
