"""Release floors on the worker ring (docs/protocol.md §2).

A ring worker sweeps its own LPs; each remote predecessor enters the
sweep with the ``B`` its owner last carried on the token.  The first
half of this file runs the matrix the floors must survive — the
conservative and mixed protocols on threads and procs, four circuit
families, both placements, under a hostile fabric and under a crash
schedule — and requires every run to commit the sequential oracle's
waves and to raise at least one floor.  The second half drives one
worker by hand through the four rules that make a carried ``B`` safe
to use: the send-count check, the owed-event caps, notes refreshed only
where a durable image follows, and the fences a recovery notice puts
up.
"""

from collections import deque

import pytest

from repro.circuits import build_dct, build_fsm, build_iir, build_random
from repro.core.vtime import INFINITY, MINUS_INFINITY, VirtualTime
from repro.fabric.plan import FaultPlan
from repro.parallel.backend import fresh_token
from repro.parallel.threads import ThreadedMachine
from repro.vhdl import (CombinationalBody, Design, SL_0, simulate,
                        simulate_parallel)

from tests.strategies import HOSTILE

CIRCUITS = {
    "fsm": lambda: build_fsm(cells=4, cycles=4).design,
    "iir": lambda: build_iir(sections=1, width=3, samples=(3,)).design,
    "dct": lambda: build_dct(n=2).design,
    "random": lambda: build_random(5, gates=10, registers=3,
                                   stimulus_bits=2, cycles=3).design,
}

PLANS = {
    "hostile": lambda: FaultPlan(seed=9, **HOSTILE),
    "crash": lambda: FaultPlan(seed=9, crashes=((2, 1),)),
}


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("placement", ["block", "round_robin"])
@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
@pytest.mark.parametrize("protocol", ["conservative", "mixed"])
@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_ring_floors_commit_the_oracle(backend, protocol, circuit,
                                       placement, plan):
    reference = simulate(CIRCUITS[circuit]())
    result = simulate_parallel(CIRCUITS[circuit](), 3, protocol=protocol,
                               backend=backend, partition=placement,
                               fault_plan=PLANS[plan](), timeout_s=120.0)
    assert result.traces == reference.traces
    assert result.stats.floors_raised > 0
    if plan == "crash":
        assert result.stats.recoveries == 1
    else:
        assert result.stats.dropped > 0


def test_optimistic_runs_sweep_nothing():
    result = simulate_parallel(CIRCUITS["fsm"](), 2, protocol="optimistic",
                               backend="threads", timeout_s=120.0)
    assert result.stats.floors_raised == 0


# ----------------------------------------------------------------------
# One worker, driven by hand
# ----------------------------------------------------------------------
def chain():
    """``a -> p1 -> b -> p2 -> c``: worker 0 owns ``a`` and ``p1``,
    worker 1 the rest, so ``p1`` is worker 1's one remote source."""
    design = Design("chain")
    a = design.signal("a", SL_0)
    b = design.signal("b", SL_0)
    c = design.signal("c", SL_0)
    design.process("p1", CombinationalBody([a], [b], lambda v: v))
    design.process("p2", CombinationalBody([b], [c], lambda v: v))
    model = design.elaborate()
    ids = {lp.name: lp.lp_id for lp in model.lps}
    placement = {lp_id: int(name not in ("a", "p1"))
                 for name, lp_id in ids.items()}
    return model, ids, placement


def worker(index, **ring):
    """Worker ``index`` of a two-worker conservative ring on the chain,
    set up but not started; its inboxes are plain in-process ones."""
    model, ids, placement = chain()
    if ring.get("recovery"):
        ring.setdefault("fault_plan", FaultPlan())  # the endpoint
    core = ThreadedMachine(model, 2, protocol="conservative",
                           partition=placement, **ring)
    core._inboxes = [deque(), deque()]
    core._setup_worker(index)
    core._install_route()
    # Nothing queued anywhere: every potential is what the test says.
    for runtime in core._proc.runtimes.values():
        runtime.queue.clear()
    core._proc.live.clear()
    return core, ids


def floor(core, ids, name):
    return core._runtimes[ids[name]].release_floor


def note(ids, bound, sent, owed=None):
    """Worker 0's note: ``p1``'s ``B``, what it owes, its send count
    to worker 1."""
    return ({ids["p1"]: bound}, owed or {}, {1: sent})


def test_a_carried_bound_waits_for_its_send_count():
    """Until worker 1 has received every envelope worker 0 sent before
    its note, ``p1``'s carried ``B`` says nothing about them."""
    core, ids = worker(1)
    core._visit(fresh_token(0, None,
                            notes={0: note(ids, VirtualTime(50, 0), 3)}))
    # GVT is still -inf: so is every bound it gives, and a floor at
    # (-inf, k) releases nothing — it is neither written nor counted.
    assert floor(core, ids, "b") == MINUS_INFINITY
    assert floor(core, ids, "c") == MINUS_INFINITY
    assert core._net.floors_raised == 0
    core._recv_from[0] = 3
    assert core._sweep_floors()[0] is False  # nothing blocked to re-arm
    assert floor(core, ids, "b") == VirtualTime(50, 0)
    assert floor(core, ids, "p2") == VirtualTime(50, 1)
    assert floor(core, ids, "c") == VirtualTime(50, 2)
    assert core._net.floors_raised == 3


def test_owed_events_cap_the_receiver():
    """An event worker 0 still owes ``b`` leaves at its own time, below
    ``p1``'s ``B``: it caps ``b``'s floor."""
    core, ids = worker(1)
    core._visit(fresh_token(0, None, notes={0: note(
        ids, VirtualTime(50, 0), 0, owed={ids["b"]: VirtualTime(20, 0)})}))
    assert floor(core, ids, "b") == VirtualTime(20, 0)


def test_the_last_usable_note_stays_until_a_newer_one_is_usable():
    core, ids = worker(1)
    core._visit(fresh_token(0, None,
                            notes={0: note(ids, VirtualTime(30, 0), 0)}))
    assert floor(core, ids, "b") == VirtualTime(30, 0)
    core._visit(fresh_token(1, None,
                            notes={0: note(ids, VirtualTime(60, 0), 5)}))
    assert floor(core, ids, "b") == VirtualTime(30, 0)
    core._recv_from[0] = 5
    core._sweep_floors()
    assert floor(core, ids, "b") == VirtualTime(60, 0)


def test_a_recovering_worker_refreshes_its_note_only_with_a_commit():
    """Under recovery the note a worker carries describes the state
    its next durable image holds: a visit that applied no commit
    carries the last note again."""
    core, ids = worker(0, recovery=True)
    token = fresh_token(0, None)
    core._visit(token)
    assert 0 not in token["notes"]  # no commit yet: no note at all
    core._visit(fresh_token(1, VirtualTime(1, 0)))
    core._ckpt_owed = False
    token = fresh_token(2, VirtualTime(1, 0))  # not above the last one
    committed = core._note
    core._visit(token)
    assert token["notes"][0] is committed
    token = fresh_token(3, VirtualTime(2, 0))
    core._visit(token)
    assert token["notes"][0] is core._note is not committed


def test_without_recovery_every_visit_refreshes_the_note():
    core, ids = worker(0)
    token = fresh_token(0, None)
    core._visit(token)
    first = token["notes"][0]
    token = fresh_token(1, None)
    core._visit(token)
    assert token["notes"][0] is not first


def test_a_crash_notice_drops_and_fences_the_victims_notes():
    """A token that still carries the dead incarnation's note must not
    bring it back: the fence wants a note taken after the notice."""
    core, ids = worker(1, recovery=True)
    stale = note(ids, VirtualTime(50, 0), 2)
    core._recv_from[0] = 2
    core._visit(fresh_token(0, None, notes={0: stale}))
    assert floor(core, ids, "b") == VirtualTime(50, 0)
    core._recv_from[0] = 3                  # the notice's own count
    core._on_recover(0, {ids["a"]: 1, ids["p1"]: 1}, 0)
    assert 0 not in core._usable and 0 not in core._notes
    core._visit(fresh_token(1, None, notes={0: stale}))
    assert 0 not in core._notes and 0 not in core._usable
    fresh = note(ids, VirtualTime(70, 0), 3)
    core._visit(fresh_token(2, None, notes={0: fresh}))
    assert core._usable[0] is fresh


def test_a_restored_worker_forgets_its_floors_until_answered():
    core, ids = worker(1, recovery=True)
    core._recv_from[0] = 1
    core._visit(fresh_token(0, None,
                            notes={0: note(ids, VirtualTime(50, 0), 1)}))
    assert floor(core, ids, "b") == VirtualTime(50, 0)
    core._restart_from_image()
    assert floor(core, ids, "b") == MINUS_INFINITY
    assert core._note is None and not core._usable
    core._visit(fresh_token(1, None,
                            notes={0: note(ids, VirtualTime(60, 0), 1)}))
    assert floor(core, ids, "b") == MINUS_INFINITY  # no answer yet
    core._recv_from[0] = 4                  # the answer's count
    core._on_recover(0, {}, 0)
    core._visit(fresh_token(2, None,
                            notes={0: note(ids, VirtualTime(60, 0), 1)}))
    assert floor(core, ids, "b") == MINUS_INFINITY  # taken before it
    core._visit(fresh_token(3, None,
                            notes={0: note(ids, VirtualTime(60, 0), 4)}))
    assert floor(core, ids, "b") == VirtualTime(60, 0)


def test_a_remote_source_never_sits_below_gvt():
    core, ids = worker(1)
    core._apply_commit(VirtualTime(40, 0))
    core._visit(fresh_token(0, None,
                            notes={0: note(ids, VirtualTime(10, 0), 0)}))
    assert floor(core, ids, "b") == VirtualTime(40, 0)
    assert INFINITY > floor(core, ids, "p2") == VirtualTime(40, 1)
