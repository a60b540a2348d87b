"""Reliable delivery over faulty links for the real-thread backend.

The threaded machine has no model clock, so the modelled fabric's
timer-driven retransmission does not transfer.  Instead the reliable
layer is *round-driven*: faults (drops, duplicates, overtakes) are
injected on the send path while workers run freely, and every
stop-the-world coordinator round runs a **retransmit pump** — with the
world paused, all unacknowledged messages are re-posted (dice re-rolled,
drop budget capped) and inboxes drained to a fixpoint, until no link
owes anything.  Quiescence, GVT, and fossil collection are evaluated
only after the pump, so a lost message can never look like global
completion or be committed past.

Latency-valued faults (``jitter``/``spike``) have no meaning in real
time and are realised as *overtakes*: an affected copy is held back on
its link and posted after the link's next younger message (or flushed by
the pump).  That exercises the same protocol paths — out-of-order
arrival, receiver-side reorder buffering — which is what matters.

Crash-recovery mirrors the modelled fabric: durable processor
checkpoints are taken at the end of each global round (the one moment
the world is stopped *and* the network is provably empty), crash points
are ``(round_index, processor)`` pairs, and recovery replays the peers'
per-link journals.

Locking: each directed link has one leaf lock guarding its sender and
receiver state; the fabric-wide stats have their own.  Link locks are
only ever taken from a worker's send/receive path (never while holding
another link's lock), and ``post`` takes the target's inbox lock last —
the existing no-cycle discipline is preserved.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.event import Event
from ..core.stats import RunStats
from .plan import FaultPlan, LinkFaults
from .recovery import (ProcessorCheckpoint, checkpoint_processor,
                       restore_processor)
from .transport import Packet

Link = Tuple[int, int]


@dataclass
class _LinkState:
    """All per-link protocol state (sender and receiver side)."""

    faults: LinkFaults
    lock: threading.Lock = field(default_factory=threading.Lock)
    next_seq: int = 0
    unacked: Dict[int, Event] = field(default_factory=dict)
    journal: Dict[int, Event] = field(default_factory=dict)
    spent_anti: Set[object] = field(default_factory=set)
    #: Copies held back to overtake the link's next younger message.
    holdback: List[Packet] = field(default_factory=list)
    expected: int = 0
    buffer: Dict[int, Event] = field(default_factory=dict)


class ThreadedFabric:
    """Drop/duplicate/overtake injection + reliable delivery on threads."""

    def __init__(self, plan: Optional[FaultPlan] = None,
                 recovery: Optional[bool] = None) -> None:
        self.plan = plan or FaultPlan()
        self.recovery = (self.plan.needs_recovery if recovery is None
                         else recovery)
        self.stats = RunStats()
        self._stats_lock = threading.Lock()
        self._links: Dict[Link, _LinkState] = {}
        self._links_lock = threading.Lock()
        self.machine = None
        self._checkpoints: Dict[int, ProcessorCheckpoint] = {}
        self._ckpt_sender_next: Dict[int, Dict[Link, int]] = {}
        self._ckpt_recv_expected: Dict[int, Dict[Link, int]] = {}

    def bind(self, machine) -> None:
        self.machine = machine

    def _link(self, link: Link) -> _LinkState:
        state = self._links.get(link)
        if state is None:
            with self._links_lock:
                state = self._links.get(link)
                if state is None:
                    state = _LinkState(faults=LinkFaults(self.plan, link))
                    self._links[link] = state
        return state

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    # ------------------------------------------------------------------
    # Send path (called from worker threads)
    # ------------------------------------------------------------------
    def send(self, sender_index: int, target, event: Event) -> None:
        """Route one remote message through the faulty link."""
        link = (sender_index, target.processor.index)
        state = self._link(link)
        posts: List[Packet] = []
        with state.lock:
            if event.sign < 0 and event.eid in state.spent_anti:
                state.spent_anti.discard(event.eid)
                self._count(suppressed_resends=1)
                return
            seq = state.next_seq
            state.next_seq += 1
            state.journal[seq] = event
            state.unacked[seq] = event
            self._count(fabric_sent=1)
            held = state.holdback
            state.holdback = []
            if state.faults.should_drop(seq):
                self._count(dropped=1)
                posts = held  # pump will retransmit the dropped message
            else:
                copies = state.faults.copies()
                if copies > 1:
                    self._count(duplicated=1)
                for _ in range(copies):
                    packet = Packet(link, seq, event)
                    _extra, overtake = state.faults.extra_latency()
                    if overtake:
                        self._count(reordered=1)
                        state.holdback.append(packet)
                    else:
                        posts.append(packet)
                # Held copies go out *after* the current message: they
                # have been overtaken by younger traffic.
                posts.extend(held)
        for packet in posts:
            target.post(packet)

    # ------------------------------------------------------------------
    # Receive path (called from worker threads via drain_pending)
    # ------------------------------------------------------------------
    def receive(self, item) -> Tuple[Event, ...]:
        """Unwrap one posted packet into zero or more in-order events."""
        if isinstance(item, Event):
            return (item,)
        state = self._link(item.link)
        with state.lock:
            seq = item.seq
            if state.unacked.pop(seq, None) is not None:
                state.faults.forget(seq)
                self._count(acks=1)
            if seq < state.expected:
                self._count(dedup_dropped=1)
                return ()
            if seq > state.expected:
                if seq in state.buffer:
                    self._count(dedup_dropped=1)
                else:
                    state.buffer[seq] = item.event
                    self._count(reorder_buffered=1)
                return ()
            out = [item.event]
            state.expected += 1
            while state.expected in state.buffer:
                out.append(state.buffer.pop(state.expected))
                state.expected += 1
            return tuple(out)

    # ------------------------------------------------------------------
    # Round pump (world stopped; coordinator thread only)
    # ------------------------------------------------------------------
    def pump(self, workers) -> bool:
        """Re-post every outstanding copy; True if anything was posted.

        Called from the coordinator's drain-fixpoint loop with every
        worker parked, so no locks race.  Drop dice are re-rolled per
        attempt; the per-message drop budget guarantees each message is
        eventually posted, so the fixpoint terminates with every link's
        ``unacked`` empty and every reorder buffer drained.
        """
        posted = False
        for link, state in list(self._links.items()):
            with state.lock:
                packets = state.holdback
                state.holdback = []
                for seq in sorted(state.unacked):
                    if state.faults.should_drop(seq):
                        self._count(dropped=1)
                        continue
                    self._count(retransmitted=1)
                    packets.append(Packet(link, seq, state.unacked[seq]))
            if packets:
                posted = True
                target = workers[link[1]]
                for packet in packets:
                    target.post(packet)
        return posted

    def quiet(self) -> bool:
        """True when no link owes a delivery (post-pump invariant)."""
        for state in self._links.values():
            with state.lock:
                if state.unacked or state.buffer or state.holdback:
                    return False
        return True

    # ------------------------------------------------------------------
    # Crash-recovery (coordinator thread, world stopped, network empty)
    # ------------------------------------------------------------------
    def take_checkpoints(self, workers) -> None:
        for worker in workers:
            proc = worker.processor
            index = proc.index
            self._checkpoints[index] = checkpoint_processor(
                proc, self._checkpoints.get(index))
            self._ckpt_sender_next[index] = {
                link: state.next_seq
                for link, state in self._links.items() if link[0] == index}
            self._ckpt_recv_expected[index] = {
                link: state.expected
                for link, state in self._links.items() if link[1] == index}
        # Prune journals: entries the receiver's durable image already
        # contains can never be needed by any future recovery.
        for link, state in self._links.items():
            floor = self._ckpt_recv_expected.get(link[1], {}).get(link)
            if floor is None:
                continue
            with state.lock:
                for seq in [s for s in state.journal if s < floor]:
                    del state.journal[seq]
                    state.faults.forget(seq)

    def crash(self, workers, index: int, gvt) -> None:
        """Crash + recover processor ``index`` (world stopped, net empty).

        The pump has already run to quiescence, so unlike the modelled
        fabric there is no in-flight traffic to reason about: recovery
        is checkpoint restore, journal replay of everything past the
        checkpoint's delivery horizon, and reconciliation of the dead
        incarnation's own post-checkpoint output through the
        lazy-cancellation reuse machinery.
        """
        from ..parallel.engine import ProtocolError

        ckpt = self._checkpoints.get(index)
        if ckpt is None:
            raise ProtocolError(
                f"no durable checkpoint for processor {index}: the crash "
                f"schedule fired before the first completed round")
        worker = workers[index]
        proc = worker.processor
        self._count(crashes=1)
        pre_epochs = {lp_id: runtime.cons_epoch
                      for lp_id, runtime in proc.runtimes.items()}
        pre_next = {link: state.next_seq
                    for link, state in self._links.items()
                    if link[0] == index}
        restore_processor(proc, ckpt)
        worker.pending.clear()  # volatile: rebuilt by journal replay
        proc.gvt_bound = gvt
        for lp_id, runtime in proc.runtimes.items():
            runtime.cons_epoch = max(pre_epochs.get(lp_id, 0),
                                     runtime.cons_epoch) + 1
        # Outgoing reconciliation.
        marks = self._ckpt_sender_next.get(index, {})
        for link, live_next in pre_next.items():
            state = self._link(link)
            base = marks.get(link, 0)
            window = [state.journal[s] for s in range(base, live_next)
                      if s in state.journal]
            anti_eids = {e.eid for e in window if e.sign < 0}
            state.spent_anti |= anti_eids
            for event in window:
                if (event.sign > 0 and not event.is_null
                        and event.eid not in anti_eids):
                    runtime = proc.runtimes.get(event.src)
                    if runtime is not None:
                        # See ReliableFabric: injected entries are
                        # outstanding cancellations — withhold() lowers
                        # the horizon.
                        proc.withhold(runtime, event)
        # Incoming replay.
        recv_marks = self._ckpt_recv_expected.get(index, {})
        replayed = 0
        for link, state in self._links.items():
            if link[1] != index:
                continue
            horizon = recv_marks.get(link, 0)
            with state.lock:
                state.expected = horizon
                state.buffer.clear()
                for seq in sorted(s for s in state.journal
                                  if s >= horizon):
                    event = state.journal[seq]
                    state.unacked[seq] = event
                    replayed += 1
        self._count(recoveries=1, replayed=replayed)
        # The replayed messages sit in `unacked`; the caller's pump
        # fixpoint re-posts and delivers them in order.
