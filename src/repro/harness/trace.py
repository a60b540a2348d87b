"""Structured protocol traces: the observable record of one run.

The conformance harness treats the synchronization protocol as a black
box that emits a sequence of *protocol-relevant actions*: sends,
deliveries, executions, rollbacks, antimessages, GVT advances,
checkpoints, commits, and fabric-level losses/retransmissions.  The
engines expose these through a **near-zero-cost hook interface**: every
instrumented object carries a ``tracer`` attribute that defaults to
``None``, and each hook site is a single ``if self.tracer is not None``
guard — an attribute load and an identity test, nothing else, so
un-traced runs pay (almost) nothing.

Hook sites (all added by this subsystem):

* :meth:`repro.core.lp.LogicalProcess.send`        — ``send``
* :meth:`repro.parallel.engine.Processor.deliver`  — ``recv``
* :meth:`repro.parallel.engine.Processor._execute` — ``exec``,
  ``checkpoint`` (state snapshot), ``commit`` (conservative)
* :meth:`repro.parallel.engine.Processor._rollback` — ``rollback``,
  ``anti``
* withheld-send flush paths (crash recovery)       — ``anti``
* annihilation sites (``_deliver_positive`` /
  ``_deliver_negative``)                           — ``annihilate``
  (``ctx`` says where the match was found: ``"queued"``,
  ``"processed"`` or ``"parked"``)
* :meth:`repro.parallel.engine.Processor.fossil_collect` /
  ``_commit_log``                                  — ``commit``
* :meth:`repro.parallel.machine.ParallelMachine._gvt_round` — ``gvt``
* :class:`repro.fabric.transport.ReliableFabric`   — ``drop``,
  ``retransmit``, ``checkpoint`` (durable), ``crash``

Event-lifecycle records (``send``/``recv``/``exec``/``commit``/``anti``
/``annihilate``) carry the event's identity as ``eid=(src_lp, seq)`` so
checkers can follow one message through its whole life — the
antimessage-accounting invariant is built entirely on this.

A trace is a plain list of :class:`TraceRecord`; the invariant checkers
in :mod:`repro.harness.invariants` scan it linearly.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple


class TraceRecord(NamedTuple):
    """One protocol-relevant action.

    ``time`` is the virtual time the action concerns (``None`` for
    purely physical actions such as durable checkpoints); ``info``
    carries action-specific fields (see :mod:`repro.harness.invariants`
    for what each checker reads).
    """

    action: str
    #: Processor index (-1 when not processor-scoped).
    proc: int
    #: LP id (-1 when not LP-scoped).
    lp: int
    #: Virtual time concerned, as a (pt, lt)-comparable value, or None.
    time: Any
    info: Dict[str, Any]


class Tracer:
    """Collects :class:`TraceRecord` objects from every hook site.

    Also keeps an LP-kind registry (``lp_kinds``): the machine registers
    every LP's class name at attach time, which the phase-legality
    checker needs to know which events are legal at which ``lt % 3``
    phase.
    """

    __slots__ = ("records", "lp_kinds")

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        #: lp_id -> LP class name (e.g. "SignalLP", "ProcessLP").
        self.lp_kinds: Dict[int, str] = {}

    def record(self, action: str, proc: int = -1, lp: int = -1,
               time: Any = None, **info: Any) -> None:
        self.records.append(TraceRecord(action, proc, lp, time, info))

    def register_lp(self, lp) -> None:
        self.lp_kinds[lp.lp_id] = type(lp).__name__

    # ------------------------------------------------------------------
    # Convenience views (used by checkers, tests and reports)
    # ------------------------------------------------------------------
    def count(self, action: str) -> int:
        return sum(1 for r in self.records if r.action == action)

    def of(self, action: str) -> List[TraceRecord]:
        return [r for r in self.records if r.action == action]

    def __len__(self) -> int:
        return len(self.records)

    def summary(self) -> str:
        counts: Dict[str, int] = {}
        for r in self.records:
            counts[r.action] = counts.get(r.action, 0) + 1
        parts = [f"{k}={v}" for k, v in sorted(counts.items())]
        return " ".join(parts) if parts else "empty trace"

    def fingerprint(self) -> str:
        """Content hash of the trace's protocol-relevant shape.

        Hashes the full ``(action, proc, lp, time)`` sequence — enough
        to distinguish any two interleavings the invariants could tell
        apart, while staying independent of ``info`` payload details
        (which carry engine-internal counters).  Failure triage
        (:mod:`repro.campaign.triage`) folds this into artifact names so
        distinct shrunk reproductions never collide on disk.
        """
        import hashlib
        digest = hashlib.sha256()
        for r in self.records:
            digest.update(
                f"{r.action}|{r.proc}|{r.lp}|{time_tuple(r.time)};"
                .encode())
        return digest.hexdigest()


def time_tuple(time: Any) -> Optional[Tuple[int, int]]:
    """Normalize a VirtualTime-like value to a plain (pt, lt) tuple."""
    if time is None:
        return None
    return (time[0], time[1])
