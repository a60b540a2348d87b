"""Protocol invariant checkers: what every trace must satisfy.

Each checker scans a recorded trace (see :mod:`repro.harness.trace`)
and returns a list of human-readable violation strings (empty = clean).
The invariants encode the synchronization protocol's safety arguments:

* **GVT monotonicity** — the commit horizon never moves backwards.
* **No commit before GVT** — a fossil-collection commit finalizes only
  events strictly below the GVT that round computed; an optimistic LP
  may never irrevocably commit work the protocol could still cancel.
* **Per-LP commit monotonicity** — the committed event sequence of each
  LP is non-decreasing in virtual time: the committed world is a legal
  sequential execution.
* **lt-period-3 phase legality** — the distributed VHDL cycle assigns
  each event kind a phase (``lt % 3``): signals accept assignments at
  phase 0, mature drivers at phase 1 and resolve/broadcast at phase 2;
  processes consume updates at phase 2 and resume (run/timeout) at
  phase 0.  An execution outside its legal phase means the kernel's
  Lamport phase clock was violated.
* **Rollback/antimessage accounting** — trace-visible rollbacks,
  squashed events and antimessages must balance the engine's own
  counters, and committed = executed - rolled back.
* **Antimessage lifecycle accounting** — every emitted negative refers
  to a positive that was really sent, never to one already committed,
  and annihilates (queued / processed / parked) before termination.
  This is the invariant that pins the orphaned-antimessage deadlock
  (PR 6): a withheld cancellation whose positive commits can never
  annihilate.
* **Fabric retransmit = loss** — with the in-flight accounting of the
  reliable fabric, a retransmission happens exactly once per genuinely
  lost copy (crash-free runs): spurious retransmissions would mean the
  reliability layer pays for messages the network still intends to
  deliver.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.event import EventKind
from .trace import Tracer

#: Every violation category the harness can emit, in triage-priority
#: order (most protocol-specific first).  Each violation string starts
#: with its category followed by ``":"`` — failure triage
#: (:mod:`repro.campaign.triage`) relies on this prefix convention to
#: classify and deduplicate failures, so new checkers must register
#: their category here.
VIOLATION_KINDS: Tuple[str, ...] = (
    "protocol-error",          # engine raised (incl. diagnosed stalls)
    "gvt-monotonicity",
    "commit-before-gvt",
    "commit-order",
    "phase-legality",
    "anti-accounting",
    "rollback-accounting",
    "antimessage-accounting",
    "commit-accounting",
    "fabric-accounting",
    "fabric-balance",
    "oracle-diff",             # differential oracle (check.py)
    "digest-mismatch",
    "commit-count",
    "replay-digest",
    "replay-divergence",
)

#: Legal execution phases (lt % 3) per (LP class name, event kind).
#: See repro/core/vtime.py for the phase assignments of the distributed
#: VHDL cycle.
PHASE_LEGALITY: Dict[Tuple[str, int], Tuple[int, ...]] = {
    ("SignalLP", int(EventKind.SIGNAL_ASSIGN)): (0,),
    ("SignalLP", int(EventKind.SIGNAL_DRIVE)): (1,),
    ("SignalLP", int(EventKind.SIGNAL_RESOLVE)): (2,),
    ("ProcessLP", int(EventKind.SIGNAL_UPDATE)): (2,),
    ("ProcessLP", int(EventKind.PROCESS_RUN)): (0,),
    ("ProcessLP", int(EventKind.PROCESS_TIMEOUT)): (0,),
}


def check_gvt_monotonic(tracer: Tracer) -> List[str]:
    violations: List[str] = []
    last = None
    for rec in tracer.records:
        if rec.action != "gvt":
            continue
        gvt = rec.info.get("gvt")
        if last is not None and gvt is not None and gvt < last:
            violations.append(
                f"gvt-monotonicity: GVT moved backwards {last} -> {gvt}")
        if gvt is not None:
            last = gvt
    return violations


def check_commit_after_gvt(tracer: Tracer) -> List[str]:
    """Fossil-collection commits must be strictly below their GVT."""
    violations: List[str] = []
    for rec in tracer.records:
        if rec.action != "commit" or rec.info.get("ctx") != "fossil":
            continue
        gvt = rec.info.get("gvt")
        if gvt is not None and rec.time is not None \
                and not (rec.time < gvt):
            violations.append(
                f"commit-before-gvt: LP {rec.lp} fossil-committed "
                f"{rec.time} with GVT {gvt}")
    return violations


def check_commit_monotonic_per_lp(tracer: Tracer) -> List[str]:
    """Each LP's committed sequence is non-decreasing in virtual time.

    Crash-recovery runs are exempt: a recovered processor restores an
    earlier checkpoint and journal replay legitimately *re-commits*
    events the trace already saw, so the per-LP commit sequence appears
    to jump backwards at the crash point while the committed results
    stay correct (the differential oracle still holds them to the
    sequential engine — found by repro.campaign crash scenarios).
    """
    if tracer.count("crash"):
        return []
    violations: List[str] = []
    last: Dict[int, object] = {}
    for rec in tracer.records:
        if rec.action != "commit" or rec.time is None:
            continue
        prev = last.get(rec.lp)
        if prev is not None and rec.time < prev:
            violations.append(
                f"commit-order: LP {rec.lp} committed {rec.time} after "
                f"{prev} (ctx={rec.info.get('ctx')})")
        last[rec.lp] = rec.time
    return violations


def check_phase_legality(tracer: Tracer) -> List[str]:
    """Executions obey the lt-period-3 phase map of their LP kind."""
    violations: List[str] = []
    kinds = tracer.lp_kinds
    for rec in tracer.records:
        if rec.action != "exec" or rec.time is None:
            continue
        lp_kind = kinds.get(rec.lp)
        if lp_kind is None:
            continue
        event_kind = rec.info.get("kind")
        legal = PHASE_LEGALITY.get((lp_kind, event_kind))
        if legal is None:
            continue  # kinds outside the VHDL cycle carry no phase law
        phase = rec.time[1] % 3
        if phase not in legal:
            violations.append(
                f"phase-legality: {lp_kind} {rec.lp} executed "
                f"{EventKind(event_kind).name} at {rec.time} "
                f"(phase {phase}, legal {legal})")
    return violations


def check_rollback_balance(tracer: Tracer, stats) -> List[str]:
    """Trace-visible rollback/antimessage actions balance the stats.

    Crash-recovery runs are exempt, like :func:`check_anti_accounting`:
    a crash discards the victim's volatile counters back to its last
    checkpoint while the trace keeps every action it ever saw, so the
    two sides differ by exactly the replayed work.
    """
    if stats.crashes:
        return []
    violations: List[str] = []
    rollbacks = tracer.count("rollback")
    antis = tracer.count("anti")
    squashed = sum(r.info.get("squashed", 0) for r in tracer.of("rollback"))
    if rollbacks != stats.rollbacks:
        violations.append(
            f"rollback-accounting: trace saw {rollbacks} rollbacks, "
            f"stats counted {stats.rollbacks}")
    if antis != stats.antimessages:
        violations.append(
            f"antimessage-accounting: trace saw {antis} antimessages, "
            f"stats counted {stats.antimessages}")
    if squashed != stats.events_rolled_back:
        violations.append(
            f"rollback-accounting: trace squashed {squashed} events, "
            f"stats counted {stats.events_rolled_back}")
    expected = stats.events_executed - stats.events_rolled_back
    if stats.events_committed != expected:
        violations.append(
            f"commit-accounting: committed {stats.events_committed} != "
            f"executed {stats.events_executed} - rolled back "
            f"{stats.events_rolled_back}")
    return violations


def check_anti_accounting(tracer: Tracer, stats) -> List[str]:
    """Every emitted antimessage has a matching positive and annihilates.

    The safety argument behind cancellation is an accounting one:
    a negative may only exist for a positive that was actually sent, the
    positive must never have been irrevocably committed (cancelling
    committed work cannot be rolled back — this is exactly the shape of
    the orphaned-antimessage deadlock fixed in this layer), and by the
    end of a completed run every negative must have annihilated against
    its positive in the queue (``ctx="queued"``), the processed log
    (``ctx="processed"``) or the parked-negatives table
    (``ctx="parked"``).  A negative still parked at termination is an
    orphan: its positive can no longer arrive.

    Crash-recovery runs are exempt: journal replay legitimately re-sends
    copies whose originals the trace already accounted, and the
    spent-anti machinery suppresses re-emissions the trace never sees
    (see docs/fault-model.md).
    """
    if stats.crashes:
        return []
    violations: List[str] = []
    sent = set()
    committed = set()
    antis = {}
    annihilated = {}
    for rec in tracer.records:
        eid = rec.info.get("eid")
        if eid is None:
            continue
        if rec.action == "send":
            sent.add(eid)
        elif rec.action == "commit":
            committed.add(eid)
            if eid in antis:
                violations.append(
                    f"anti-accounting: eid {eid} committed at {rec.time} "
                    f"after an antimessage was emitted for it "
                    f"(ctx={rec.info.get('ctx')})")
        elif rec.action == "anti":
            if eid not in sent:
                violations.append(
                    f"anti-accounting: antimessage for eid {eid} at "
                    f"{rec.time} without a recorded positive send")
            if eid in committed:
                violations.append(
                    f"anti-accounting: antimessage for eid {eid} at "
                    f"{rec.time} targets an already-committed event "
                    f"(ctx={rec.info.get('ctx')})")
            if eid in antis:
                violations.append(
                    f"anti-accounting: duplicate antimessage for eid "
                    f"{eid} (ctx={rec.info.get('ctx')})")
            antis[eid] = rec
        elif rec.action == "annihilate":
            if eid in annihilated:
                violations.append(
                    f"anti-accounting: eid {eid} annihilated twice "
                    f"({annihilated[eid]} then {rec.info.get('ctx')})")
            annihilated[eid] = rec.info.get("ctx")
    for eid, rec in antis.items():
        if eid not in annihilated:
            violations.append(
                f"anti-accounting: antimessage for eid {eid} "
                f"(t={rec.time}, ctx={rec.info.get('ctx')}) never "
                f"annihilated — orphaned negative at termination")
    for eid in annihilated:
        if eid not in antis:
            violations.append(
                f"anti-accounting: annihilation for eid {eid} "
                f"({annihilated[eid]}) without a recorded antimessage")
    return violations


def check_fabric_balance(tracer: Tracer, stats) -> List[str]:
    """Losses and retransmissions balance (crash-free runs exactly)."""
    violations: List[str] = []
    drops = tracer.count("drop")
    retransmits = tracer.count("retransmit")
    if drops != stats.dropped:
        violations.append(
            f"fabric-accounting: trace saw {drops} drops, stats counted "
            f"{stats.dropped}")
    if retransmits != stats.retransmitted:
        violations.append(
            f"fabric-accounting: trace saw {retransmits} retransmits, "
            f"stats counted {stats.retransmitted}")
    if stats.crashes == 0 and stats.retransmitted != stats.dropped:
        violations.append(
            f"fabric-balance: {stats.retransmitted} retransmissions != "
            f"{stats.dropped} losses on a crash-free run (spurious or "
            f"missing retransmits)")
    return violations


def check_all(tracer: Tracer, stats) -> List[str]:
    """Run every invariant checker; returns all violations found."""
    violations: List[str] = []
    violations += check_gvt_monotonic(tracer)
    violations += check_commit_after_gvt(tracer)
    violations += check_commit_monotonic_per_lp(tracer)
    violations += check_phase_legality(tracer)
    violations += check_rollback_balance(tracer, stats)
    violations += check_anti_accounting(tracer, stats)
    violations += check_fabric_balance(tracer, stats)
    return violations
