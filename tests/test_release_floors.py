"""The incremental release-floor sweep computes the full sweep's floors.

``ParallelMachine._refresh_release_floors`` carries ``B`` and the
shortest-path parents between GVT rounds and redoes only what the
potentials moved.  This file keeps the full sweep — one Dijkstra over
the whole LP graph per round, exactly as the machine ran it before it
carried anything — as a reference, and checks after *every* GVT round
of a run that the two agree: every blockable runtime's floor (after the
ratchet both apply) and every LP's ``B``.  Model time is pinned
separately (``tests/test_model_time_golden.py``); this is the sharper
check, round by round.
"""

import heapq

import pytest

from repro.circuits import build_random
from repro.core.vtime import INFINITY, VirtualTime
from repro.fabric import FaultPlan
from repro.harness.check import Checker, build_circuit
from repro.harness.schedule import RandomScheduler
from repro.parallel.machine import ParallelMachine
from repro.vhdl import simulate_parallel

from tests.strategies import PROTOCOLS
from tests.test_model_time_golden import CELLS, DESIGNS


def full_sweep(machine):
    """``(B, floor)`` per LP id from scratch: the walk and the Dijkstra
    of the machine's original, uncarried sweep."""
    potentials, inflight = {}, {}

    def note(lp_id, time, arriving=False):
        if lp_id not in potentials or time < potentials[lp_id]:
            potentials[lp_id] = time
        if arriving and (lp_id not in inflight
                         or time < inflight[lp_id]):
            inflight[lp_id] = time

    for proc in machine.procs:
        for lp_id in proc.live:
            runtime = proc.runtimes[lp_id]
            if runtime.head() is not None:
                note(lp_id, runtime.queue[0][0][0])
            for negative in runtime.negatives.values():
                note(lp_id, negative.time, arriving=True)
            for pending in runtime.withheld:
                note(pending.dst, pending.time, arriving=True)
        for _at, _seq, event in proc.inbox:
            note(event.dst, event.time, arriving=True)
        for event in proc.local_fifo:
            note(event.dst, event.time, arriving=True)
    for event in machine.fabric.pending_events():
        note(event.dst, event.time, arriving=True)

    model, lps = machine.model, machine.model.lps
    settled = {}
    heap = [(time, lp_id) for lp_id, time in potentials.items()]
    heapq.heapify(heap)
    while heap:
        time, lp_id = heapq.heappop(heap)
        if lp_id in settled:
            continue
        settled[lp_id] = time
        for nxt in model.successors(lp_id):
            la = lps[nxt].react_lookahead_phases
            candidate = VirtualTime(time[0], time[1] + la) if la else time
            if nxt not in settled and candidate < potentials.get(
                    nxt, INFINITY):
                potentials[nxt] = candidate
                heapq.heappush(heap, (candidate, nxt))
    floors = {}
    for lp in lps:
        floor = inflight.get(lp.lp_id, INFINITY)
        for j in model.predecessors(lp.lp_id):
            floor = min(floor, settled.get(j, INFINITY))
        floors[lp.lp_id] = floor
    return settled, floors


@pytest.fixture
def rounds(monkeypatch):
    """Check every sweep of every machine against :func:`full_sweep`;
    yields, per round that had readers, whether it was a full one."""
    checked = []
    carried = ParallelMachine._refresh_release_floors

    def refresh(machine):
        if not machine._readers:
            return carried(machine)
        full = machine._carried is None
        before = {lp_id: rt.release_floor
                  for lp_id, rt in machine._runtimes.items()}
        settled, floors = full_sweep(machine)
        carried(machine)
        bound = machine._carried[2]
        for lp_id, runtime in machine._runtimes.items():
            assert bound[lp_id] == settled.get(lp_id, INFINITY), lp_id
            if runtime.blockable:
                assert runtime.release_floor == max(
                    before[lp_id], floors[lp_id]), lp_id
                assert type(runtime.release_floor) is VirtualTime
            else:
                assert runtime.release_floor == before[lp_id]
        checked.append(full)

    monkeypatch.setattr(ParallelMachine, "_refresh_release_floors",
                        refresh)
    yield checked


@pytest.mark.parametrize("processors", (1, 4))
@pytest.mark.parametrize("label,design,protocol,exec_mode", CELLS,
                         ids=[cell[0] for cell in CELLS])
def test_golden_cells(rounds, label, design, protocol, exec_mode,
                      processors):
    simulate_parallel(DESIGNS[design]().artifact(), processors,
                      protocol=protocol, backend="model",
                      exec_mode=exec_mode)
    if protocol == "optimistic":
        assert rounds == []
    else:
        assert len(rounds) > 1
        assert rounds == [True] + [False] * (len(rounds) - 1)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_random_full_crash_recovery(rounds, protocol):
    simulate_parallel(build_circuit("random-full", 5), 4,
                      protocol=protocol, backend="model",
                      fault_plan=FaultPlan(seed=7, crashes=((500, 1),)))
    assert (rounds == []) == (protocol == "optimistic")


def test_fabric_pending_events_count(rounds):
    """Drops, duplicates and reordering keep events owed by the fabric
    across rounds; they are arrivals for the floors."""
    plan = FaultPlan(seed=3, drop=0.1, duplicate=0.05, reorder=0.3,
                     jitter=1.0)
    machine = ParallelMachine(build_random(7).design.elaborate(), 4,
                              protocol="conservative", fault_plan=plan)
    owed = []
    pending = machine.fabric.pending_events

    def counted():
        events = list(pending())
        owed.append(len(events))
        return iter(events)

    machine.fabric.pending_events = counted
    machine.run(max_steps=5_000_000)
    assert rounds and max(owed) > 0


def test_restore_drops_the_carried_state(rounds):
    plan = FaultPlan(seed=7, drop=0.03, crashes=((200, 1), (500, 2)))
    machine = ParallelMachine(build_random(42).design.elaborate(), 4,
                              protocol="mixed", fault_plan=plan)
    outcome = machine.run(max_steps=5_000_000)
    assert outcome.stats.recoveries == 2
    # The first round, and the first one after each crash, is full.
    assert sum(rounds) == 3


def test_controlled_scheduler(rounds):
    checker = Checker("random-full", circuit_seed=3, processors=3,
                      protocol="dynamic",
                      fault_plan=FaultPlan(seed=7, crashes=((500, 1),)))
    report = checker.run_schedule(RandomScheduler(1), "r")
    assert report.ok, report.violations
    assert rounds
