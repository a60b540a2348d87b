"""Readiness bookkeeping of ``Processor``: schedule entries, polls, ``live``.

Three things are pinned here (ISSUE 13):

(a) *Schedule entries vs polls.*  A ready-heap entry of a runtime that
    can block (conservative or dynamic) is a poll, one per arm, exactly
    as it always was — but *counted*: the heap holds each distinct
    ``(key, lp id)`` once and ``Processor.copies`` how many polls it
    stands for, never 0, and a durable image stores the multiset.  For
    a runtime that can never block an entry only schedules, so its heap
    entries are exactly the keys in its ``armed`` stack: strictly
    decreasing, hence never duplicated, the lowest one at or below the
    queue head.  A rollback storm therefore cannot multiply entries.
(b) *The ``live`` set.*  Every runtime holding protocol state (queue,
    log, parked negatives, withheld sends) is in its processor's
    ``live`` set — the per-round services walk only that set — and the
    set drains when the run is over.
(c) *The controlled twin.*  ``_execute_one_controlled`` shares the
    bookkeeping; the executions it chooses (the ``exec`` records of the
    trace, in order) are the parent commit's on canonical-order runs of
    every protocol, and for populations of blockable runtimes the
    choice-point signature is the parent's too.  ``tests/data/controlled_trace_golden.json`` was
    generated from the parent commit; regenerate with
    ``PYTHONPATH=src python tests/test_engine_ready.py`` only for a
    change that is allowed to move traces.
(d) *The execution window* (ISSUE 16).  ``Processor.window_end`` bounds
    what ``_pop_safe`` hands out: no event with a ``pt`` beyond the
    window in force executes, a bound window pops, parks and re-arms
    nothing, and (a)-(c) hold unchanged whatever the window does.  Only
    ``WorkerCore`` writes it, so the goldens of (c) and
    ``tests/data/model_time_golden.json`` stay as they are.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.circuits import build_fsm, build_random
from repro.core.model import SyncMode
from repro.core.vtime import VirtualTime
from repro.fabric import FaultPlan
from repro.fabric.recovery import checkpoint_processor, restore_processor
from repro.harness.check import Checker
from repro.harness.schedule import DefaultScheduler, RandomScheduler
from repro.parallel.machine import ParallelMachine
from repro.parallel.procs import ProcsMachine
from repro.vhdl import simulate

from tests.strategies import (PROTOCOLS, RingInterleaving, prop_settings,
                              protocols, ring_steps, small_random_design,
                              small_seeds)
from tests.test_parallel_engine import build, ev
from tests.test_procs import needs_fork

GOLDEN = Path(__file__).parent / "data" / "controlled_trace_golden.json"


# ----------------------------------------------------------------------
# The invariants
# ----------------------------------------------------------------------
def check_ready(proc):
    """Invariant (a) on one processor; returns the number of polls."""
    assert len(set(proc.ready)) == len(proc.ready), "duplicate heap entry"
    assert set(proc.copies) == {
        entry for entry in proc.ready
        if proc.runtimes[entry[1]].blockable}
    assert all(count >= 1 for count in proc.copies.values())
    entries = {}
    for key, lp_id in proc.ready:
        entries.setdefault(lp_id, []).append(key)
    polls = 0
    for lp_id, runtime in proc.runtimes.items():
        keys = entries.get(lp_id, [])
        if runtime.blockable:
            assert runtime.armed == []
            polls += sum(proc.copies[(key, lp_id)] for key in keys)
            continue
        assert runtime.armed == sorted(keys, reverse=True), (
            f"heap entries of lp {lp_id} are not its armed stack")
        assert len(set(keys)) == len(keys), f"duplicate entry, lp {lp_id}"
        if runtime.head() is not None and proc.until is None:
            # No lost wake-up: an entry surfaces at or before the head.
            assert runtime.armed and runtime.armed[-1] <= runtime.queue[0][0]
    return polls


def multiset(proc):
    """The ready heap with every poll spelled out, sorted — what a
    durable image stores."""
    return sorted(entry for entry in proc.ready
                  for _ in range(proc.copies.get(entry, 1)))


def check_live(proc):
    """Invariant (b): whoever holds protocol state is in ``live``."""
    for lp_id, runtime in proc.runtimes.items():
        if (runtime.queue or runtime.processed or runtime.negatives
                or runtime.withheld or runtime.reuse_pending):
            assert lp_id in proc.live, f"lp {lp_id} holds state, not live"
    assert proc.live <= set(proc.runtimes)


# ----------------------------------------------------------------------
# (a) + (b) on a bare processor under arbitrary interleavings
# ----------------------------------------------------------------------
ops = st.lists(ring_steps, min_size=1, max_size=60)


@prop_settings(400)
@given(ops)
def test_ready_and_live_invariants_under_any_interleaving(sequence):
    ring = RingInterleaving()
    proc, runtimes = ring.proc, ring.runtimes
    assert [rt.blockable for rt in runtimes] == [False, False, True, True]
    beyond = []  # executions past the window in force when they ran
    execute = proc._execute

    def execute_checked(runtime, event):
        end = proc.window_end
        if end is not None and event.time.pt > end:
            beyond.append((event, end))
        execute(runtime, event)

    proc._execute = execute_checked
    for op, a, b in sequence:
        ring.step(op, a, b)
        assert not beyond
        polls = check_ready(proc)
        check_live(proc)
        assert len(multiset(proc)) == polls + sum(
            len(rt.armed) for rt in runtimes)
    # Drained: nothing schedulable is left behind in the heap.
    proc.window_end = None
    while proc.act():
        pass
    assert proc.ready == [] and all(rt.armed == [] for rt in runtimes)
    assert proc.copies == {}


@prop_settings(200)
@given(ops, ops)
def test_images_carry_the_ready_multiset(before, after):
    """An image stores every poll; a restore rebuilds the heap and the
    counts from it, whatever happened in between."""
    ring = RingInterleaving()
    proc = ring.proc
    for op, a, b in before:
        ring.step(op, a, b)
    held = multiset(proc)
    image = checkpoint_processor(proc)
    assert image.ready == held
    for op, a, b in after:
        ring.step(op, a, b)
    restore_processor(proc, image)
    assert multiset(proc) == held
    check_ready(proc)
    assert checkpoint_processor(proc).ready == image.ready
    proc.window_end = None
    while proc.act():
        pass
    check_ready(proc)


def test_polls_are_counted_not_copied():
    """N deliveries to one blocked conservative runtime leave one heap
    entry standing for N polls, and it surfaces as exactly N blocked
    polls: the inflation docs/protocol.md §3.4 keeps (de-duplicating
    it moves model time) stays, as one number."""
    proc, _lps, (_sender, cons), _ = build(
        [SyncMode.OPTIMISTIC, SyncMode.CONSERVATIVE], targets={0: 1})
    n = 7
    for i in range(n):
        proc.deliver(ev(1, 5 + i, seq=i))
    (entry,) = proc.ready
    assert proc.copies == {entry: n}
    assert checkpoint_processor(proc).ready == [entry] * n
    assert not proc.act()
    assert proc.stats.blocked_polls == cons.blocked_streak == n
    assert proc.ready == [] and proc.copies == {} and proc.blocked == {1}


def test_bound_window_declines_without_side_effects():
    """A head beyond the window: ``act`` reports no progress, the heap,
    ``blocked`` and the poll counters are as they were, and the stall is
    counted; moving the window is all it takes to go on.  A stale lower
    entry inside the window is popped and re-armed as ever."""
    proc, lps, (opt, cons), _ = build(
        [SyncMode.OPTIMISTIC, SyncMode.CONSERVATIVE])
    proc.gvt_bound = VirtualTime(20, 0)
    late = ev(0, 9, payload="late", seq=1)
    proc.deliver(late)
    proc.deliver(ev(0, 12, payload="later", seq=2))
    proc.deliver(ev(1, 15, payload="cons", seq=3))
    proc.window_end = 10
    proc.deliver(late.antimessage())  # the entry at 9 is now stale
    assert [key[0].pt for key, _ in sorted(proc.ready)] == [9, 15]
    assert not proc.act()
    # The stale entry went, its runtime re-armed at 12; nothing else.
    heap = sorted(proc.ready)
    assert [key[0].pt for key, _ in heap] == [12, 15]
    assert proc.stats.window_stalls == 1
    assert proc.stats.blocked_polls == 0 and proc.blocked == set()
    assert proc.stats.events_executed == 0
    check_ready(proc)
    for _ in range(3):
        assert not proc.act()
    assert sorted(proc.ready) == heap
    assert proc.stats.window_stalls == 4
    proc.window_end = 12
    assert proc.act() and not proc.act()
    assert [p for _, p in lps[0].log] == ["later"] and lps[1].log == []
    proc.window_end = 15
    assert proc.act() and not proc.act()
    assert [p for _, p in lps[1].log] == ["cons"]
    assert proc.ready == [] and proc.stats.window_stalls == 5


def test_controlled_candidates_hold_each_unblockable_lp_once():
    """A superseded entry surfacing inside the tie group re-arms its
    runtime at the head already gathered; the ``lp`` choice point must
    still offer that runtime once."""
    proc, lps, (rt, _), _ = build(
        [SyncMode.OPTIMISTIC, SyncMode.OPTIMISTIC])
    proc.scheduler = DefaultScheduler()
    proc.deliver(ev(0, 10, payload="second", seq=2))
    proc.deliver(ev(0, 10, payload="first", seq=1))  # supersedes, same tie
    proc.deliver(ev(1, 10, payload="other", seq=3))
    assert len(rt.armed) == 2
    assert proc.act()
    assert proc.scheduler.ncands[0] == 2  # lp 0 and lp 1, not lp 0 twice
    check_ready(proc)
    while proc.act():
        pass
    assert [p for _, p in lps[0].log] == ["first", "second"]
    assert proc.ready == []


def test_withheld_send_enters_and_leaves_live():
    """Crash recovery parks a dead incarnation's sends on runtimes that
    may hold nothing else; GVT must still see and flush them."""
    proc, _lps, (rt, _), sent = build(
        [SyncMode.OPTIMISTIC, SyncMode.OPTIMISTIC])
    proc.withhold(rt, ev(1, 7, src=0, send_pt=3))
    assert proc.live == {0}
    assert proc.local_min_time() == VirtualTime(7, 0)
    proc.flush_withheld_all(VirtualTime(5, 0))
    assert [(e.sign, e.time) for e in sent] == [(-1, VirtualTime(7, 0))]
    proc.fossil_collect(VirtualTime(5, 0))
    assert proc.live == set()


def test_rollback_storm_does_not_multiply_entries():
    """1 000 rollbacks on one LP: the heap stays at a couple of entries
    (the parent commit left one more stale entry per arm)."""
    proc, (lp, _other), _, _ = build(
        [SyncMode.OPTIMISTIC, SyncMode.OPTIMISTIC])
    # Count executions instead of logging them: snapshots stay O(1).
    lp._fn = lambda lp, event: lp.memory.__setitem__(
        "n", lp.memory.get("n", 0) + 1)
    peak = 0
    for i in range(1000):
        proc.deliver(ev(0, 10 * i + 10, payload="late"))
        while proc.act():
            pass
        proc.deliver(ev(0, 10 * i + 5, payload="early"))  # straggler
        peak = max(peak, len(proc.ready))
        assert len(proc.ready) <= len(proc.runtimes)
        check_ready(proc)
        while proc.act():
            pass
        assert proc.ready == []
        proc.fossil_collect(VirtualTime(10 * i + 10, 0))
    assert proc.stats.rollbacks == 1000
    assert peak == 2  # the re-queued head and the straggler below it
    assert lp.memory["n"] == proc.stats.events_executed \
        - proc.stats.events_rolled_back == 2000


# ----------------------------------------------------------------------
# (a) + (b) on whole runs; ``live`` drains
# ----------------------------------------------------------------------
def checked_machine(model, processors, **kwargs):
    """A machine that checks (a) and (b) on every processor at every
    GVT round (the moment the per-round services walk ``live``)."""
    machine = ParallelMachine(model, processors, **kwargs)
    inner = machine._gvt_round

    def gvt_round_checked(barrier):
        inner(barrier)
        for proc in machine.procs:
            check_ready(proc)
            check_live(proc)

    machine._gvt_round = gvt_round_checked
    return machine


@prop_settings(30)
@given(small_seeds, protocols)
def test_whole_runs_hold_invariants_and_live_drains(seed, protocol):
    reference = simulate(small_random_design(seed))
    design = small_random_design(seed)
    machine = checked_machine(design.elaborate(), 3, protocol=protocol)
    outcome = machine.run(max_steps=2_000_000)
    assert {s.name: s.trace() for s in design.signals if s.traced} \
        == reference.traces
    assert outcome.stats.events_committed \
        == reference.stats.events_committed
    for proc in machine.procs:
        assert proc.live == set()
        assert proc.ready == []


# ----------------------------------------------------------------------
# Crash recovery rebuilds the bookkeeping from the image
# ----------------------------------------------------------------------
def test_restored_optimistic_processor_holds_invariants():
    machine = ParallelMachine(build_random(42).design.elaborate(), 2,
                              protocol="optimistic",
                              fault_plan=FaultPlan(seed=1), recovery=True)
    proc = machine.procs[1]

    def step(n):
        for _ in range(n):
            chosen = machine._next_processor()
            if chosen.act():
                machine.fabric.poll(chosen)

    # Stop mid-run: entries in the heap, speculative work in the log.
    for _ in range(5000):
        step(1)
        if len(proc.ready) >= 3 and sum(
                len(rt.processed) for rt in proc.runtimes.values()) >= 3:
            break
    image = checkpoint_processor(proc)
    held = {lp_id for lp_id, rt in proc.runtimes.items() if not rt.idle()}
    assert len(image.ready) >= 3 and held
    # No duplicate entries travel in the image (smaller dist uploads).
    assert len(set(image.ready)) == len(image.ready)
    step(150)
    restore_processor(proc, image)
    assert proc.ready == image.ready
    assert proc.live == held
    check_ready(proc)
    check_live(proc)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_model_crash_schedule_stays_oracle_identical(protocol):
    reference = simulate(build_random(42).design)
    design = build_random(42).design
    plan = FaultPlan(seed=7, drop=0.03, crashes=((200, 1), (500, 2)))
    machine = checked_machine(design.elaborate(), 4, protocol=protocol,
                              fault_plan=plan)
    outcome = machine.run(max_steps=5_000_000)
    assert {s.name: s.trace() for s in design.signals if s.traced} \
        == reference.traces
    assert outcome.stats.recoveries == 2


# "optimistic" is back (ISSUE 14): the cell used to stall about one run
# in ten — a journalled send injected as withheld at exactly GVT pinned
# GVT — until the worker ring got the stall-time inclusive flush of the
# modelled machine (``WorkerCore._initiate``, the token's ``stalled``).
@needs_fork
@pytest.mark.parametrize("protocol", ["optimistic", "mixed",
                                      "conservative"])
def test_procs_kill_recovery_stays_oracle_identical(protocol):
    reference = simulate(build_fsm(cells=4, cycles=4).design)
    design = build_fsm(cells=4, cycles=4).design
    outcome = ProcsMachine(
        design.elaborate(), 2, protocol=protocol,
        fault_plan=FaultPlan(seed=11).with_crashes((2, 1)),
    ).run(timeout_s=60.0)
    assert {s.name: s.trace() for s in design.signals if s.traced} \
        == reference.traces
    assert outcome.stats.recoveries >= 1


# ----------------------------------------------------------------------
# (c) the controlled twin chooses what the parent commit chose
# ----------------------------------------------------------------------
def _signature_hash(signature):
    return hashlib.sha256(repr(tuple(signature)).encode()).hexdigest()


def controlled_rows():
    """label -> {trace, digest[, choices, signature]} of controlled runs.

    The signature (``(ncand, chosen)`` per choice point) is recorded
    only where every runtime is blockable: a runtime that can never
    block no longer appears twice among the ``lp`` candidates, so its
    candidate counts — not the executions chosen — differ from the
    parent's under optimistic and mixed.
    """
    rows = {}

    def record(label, report, signature):
        assert report.ok, report.violations
        row = {"trace": report.trace_fingerprint, "digest": report.digest}
        if signature:
            row["choices"] = len(report.signature)
            row["signature"] = _signature_hash(report.signature)
        rows[label] = row

    for circuit, protocol in (("fsm", "optimistic"),
                              ("random-full", "dynamic"),
                              ("random-full", "conservative")):
        checker = Checker(circuit, circuit_seed=3, processors=3,
                          protocol=protocol)
        blockable = protocol in ("dynamic", "conservative")
        # The golden's labels predate the retirement of lazy
        # cancellation; these runs always cancelled eagerly.
        label = f"{circuit}/{protocol}/lazy=0"
        record(f"{label}/default",
               checker.run_schedule(DefaultScheduler(), "d"), blockable)
        if blockable:
            record(f"{label}/random-1",
                   checker.run_schedule(RandomScheduler(1), "r"), True)
    return rows


def test_controlled_twin_matches_parent_commit():
    assert controlled_rows() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(controlled_rows(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
