"""Stall forensics: the structured report a diagnosed stall carries.

When a backend's liveness watchdog trips, dying with a bare message
wastes the one moment all the evidence is still in memory.  A
:class:`StallReport` snapshots the protocol state that matters for
root-causing a liveness failure:

* the per-LP virtual-time surface (min/max/width of local clocks — the
  Korniss surface-roughness signal; a wide surface is the early-warning
  sign of desynchronization, a frozen narrow one of a true deadlock);
* parked negatives (antimessages waiting for a positive that never
  arrived) with their origin epoch — the exact artifact of the
  orphaned-antimessage bug fixed in this layer;
* withheld-send counts per processor (crash recovery);
* whatever the backend knows about in-flight traffic (token-ring
  channel counts for ``procs``, fabric backlog elsewhere).

Everything in the report is plain picklable data so ``procs`` workers
can ship one through the IPC pipe before aborting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

VT = Tuple[int, int]  # (pt, lt) — VirtualTime flattened for pickling


@dataclass
class StallReport:
    """Diagnosis attached to a ``ProtocolError`` on a liveness failure."""

    #: Which backend diagnosed the stall ("model" | "threads" | "procs"
    #: | "dist").
    backend: str
    #: One-line reason, e.g. "no GVT advance in 500000 steps".
    reason: str
    #: GVT at diagnosis time, flattened ``(pt, lt)`` (None if unknown).
    gvt: Optional[VT] = None
    #: The watchdog bound that tripped (steps or seconds).
    bound: Optional[float] = None
    #: lp_id -> local clock ``(pt, lt)``.
    lp_clocks: Dict[int, VT] = field(default_factory=dict)
    #: Virtual-time surface: min/max over lp_clocks, width = max - min
    #: in physical-time units (femtoseconds).
    vt_min: Optional[VT] = None
    vt_max: Optional[VT] = None
    vt_width: int = 0
    #: Parked negatives: antimessages whose positive never arrived.
    #: Each entry: {"proc", "dst", "eid", "time", "origin_epoch"}.
    parked_negatives: List[Dict[str, Any]] = field(default_factory=list)
    #: processor index -> number of withheld sends.
    withheld: Dict[int, int] = field(default_factory=dict)
    #: In-flight accounting (backend-specific), e.g. token-ring
    #: channel counts {"sent_to": {...}, "recv_from": {...}} for the
    #: worker ring or {"fabric_pending": n} for the modelled machine.
    in_flight: Dict[str, Any] = field(default_factory=dict)
    #: Worker that raised the diagnosis (worker ring only).
    origin: Optional[int] = None

    def describe(self) -> str:
        """Human-readable multi-line rendering for CLI stall output."""
        lines = [f"stall diagnosed on backend={self.backend}: {self.reason}"]
        if self.gvt is not None:
            lines.append(f"  gvt           : {self.gvt[0]}fs@{self.gvt[1]}")
        if self.bound is not None:
            lines.append(f"  watchdog bound: {self.bound}")
        if self.lp_clocks:
            lines.append(
                f"  vt surface    : min={_fmt(self.vt_min)} "
                f"max={_fmt(self.vt_max)} width={self.vt_width}fs "
                f"over {len(self.lp_clocks)} LPs")
        if self.withheld:
            total = sum(self.withheld.values())
            lines.append(f"  withheld      : {total} "
                         f"(per proc {dict(sorted(self.withheld.items()))})")
        if self.parked_negatives:
            lines.append(f"  parked negs   : {len(self.parked_negatives)}")
            for entry in self.parked_negatives[:8]:
                lines.append(
                    f"    anti eid={entry['eid']} dst={entry['dst']} "
                    f"t={_fmt(entry['time'])} "
                    f"origin_epoch={entry['origin_epoch']} "
                    f"proc={entry['proc']}")
            if len(self.parked_negatives) > 8:
                lines.append(f"    ... and "
                             f"{len(self.parked_negatives) - 8} more")
        if self.in_flight:
            lines.append(f"  in flight     : {self.in_flight}")
        if self.origin is not None:
            lines.append(f"  diagnosed by  : worker {self.origin}")
        return "\n".join(lines)


def _fmt(vt: Optional[VT]) -> str:
    if vt is None:
        return "?"
    return f"{vt[0]}fs@{vt[1]}"


def surface(clocks: Iterable[VT]) -> Tuple[Optional[VT], Optional[VT], int]:
    """(min, max, width-in-fs) of a virtual-time surface sample."""
    clocks = list(clocks)
    if not clocks:
        return None, None, 0
    lo = min(clocks)
    hi = max(clocks)
    return lo, hi, hi[0] - lo[0]


def build_report(backend: str, reason: str, processors: Iterable[Any],
                 gvt: Any = None, bound: Optional[float] = None,
                 in_flight: Optional[Dict[str, Any]] = None,
                 origin: Optional[int] = None) -> StallReport:
    """Assemble a :class:`StallReport` from live ``Processor`` objects.

    ``processors`` is any iterable of ``repro.parallel.engine.Processor``;
    only read access is needed, so this is safe to call between steps
    (model) or inside a worker, on its own processor (worker ring).
    """
    report = StallReport(backend=backend, reason=reason, bound=bound,
                         in_flight=dict(in_flight or {}), origin=origin)
    if gvt is not None:
        report.gvt = (gvt[0], gvt[1])
    for proc in processors:
        withheld = 0
        for lp_id, runtime in proc.runtimes.items():
            now = runtime.lp.now
            report.lp_clocks[lp_id] = (now[0], now[1])
            withheld += len(runtime.withheld)
            withheld += len(runtime.reuse_pending)
            for eid, negative in runtime.negatives.items():
                report.parked_negatives.append({
                    "proc": proc.index,
                    "dst": negative.dst,
                    "eid": (eid.src, eid.seq),
                    "time": (negative.time[0], negative.time[1]),
                    "origin_epoch": negative.epoch,
                })
        if withheld:
            report.withheld[proc.index] = withheld
    report.vt_min, report.vt_max, report.vt_width = \
        surface(report.lp_clocks.values())
    return report
