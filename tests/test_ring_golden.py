"""The worker ring's counters are pinned exactly, in tier-1.

Threads workers take turns in one thread in index order, so a threads
run is a pure function of (model, ``RingSpec``, fault plan): its
``RunStats``, token waves and GVT commits are exact numbers, as a
makespan is on the modelled machine.  ``tests/data/ring_golden.json``
holds them for a small slice of the ring grid — fsm(cells=8, cycles=4)
and the harness's ``random`` circuit at seed 3, × the three static
protocols, × {P=2 on a perfect fabric, P=3 under a lossy plan with a
crash of worker 2 at the third commit}.  A change that moves the ring
(more waves, more rollbacks, a different envelope count) fails here
even when it still commits the right waves.  The wall-clock deadline
and the watchdog stay outside the compared fields: they only raise.

Regenerate (only for a change that is *allowed* to move the ring, and
say so in CHANGES.md)::

    PYTHONPATH=src python tests/test_ring_golden.py
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.circuits import build_fsm
from repro.fabric import FaultPlan
from repro.harness.check import build_circuit
from repro.parallel.threads import run_threaded

GOLDEN = Path(__file__).parent / "data" / "ring_golden.json"

PROTOCOLS = ("optimistic", "conservative", "mixed")

DESIGNS = {
    "fsm-8x4": lambda: build_fsm(cells=8, cycles=4).design,
    "random-3": lambda: build_circuit("random", 3),
}

#: label -> (processors, fault plan)
FABRICS = {
    "p2": (2, None),
    "p3-lossy-crash": (3, FaultPlan(seed=1, drop=0.02).with_crashes((3, 2))),
}

CELLS = [(design, protocol, fabric) for design in DESIGNS
         for protocol in PROTOCOLS for fabric in FABRICS]


def measure(design: str, protocol: str, fabric: str) -> dict:
    processors, plan = FABRICS[fabric]
    model = DESIGNS[design]().elaborate()
    outcome = run_threaded(model, processors, protocol=protocol,
                           fault_plan=plan)
    return {"stats": asdict(outcome.stats), "waves": outcome.waves,
            "commits": outcome.gvt_rounds}


def _label(design: str, protocol: str, fabric: str) -> str:
    return f"{design}/{protocol}/{fabric}"


@pytest.mark.parametrize("design,protocol,fabric", CELLS,
                         ids=[_label(*cell) for cell in CELLS])
def test_ring_counters_are_pinned(design, protocol, fabric):
    golden = json.loads(GOLDEN.read_text())
    # JSON round-trip of the measured row: tuples become lists as they
    # did when the file was written.
    measured = json.loads(json.dumps(measure(design, protocol, fabric)))
    assert measured == golden[_label(design, protocol, fabric)]


if __name__ == "__main__":
    rows = {_label(*cell): measure(*cell) for cell in CELLS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")
