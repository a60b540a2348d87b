"""Delivery fabrics for the modelled multiprocessor.

The machine routes every remote message through a pluggable *fabric*:

* :class:`PerfectFabric` — the historical transport: lossless,
  duplicate-free, per-link FIFO delivery after a fixed latency.  Zero
  overhead; byte-identical behaviour to the pre-fabric machine.
* :class:`ReliableFabric` — a reliable-delivery protocol running over a
  faulty link model (:class:`~repro.fabric.plan.FaultPlan`): the link
  state machine of :mod:`repro.fabric.link` (sequence numbers, journal,
  acknowledgements, dedup + reorder buffers restoring exactly-once
  in-order delivery) driven by the model clock — latency, timeout-driven
  retransmission with capped exponential backoff — plus journal pruning
  and whole-processor crash-recovery from durable checkpoints.

The synchronization protocol above (optimistic / conservative / mixed /
dynamic) is *unchanged*: it still assumes exactly-once FIFO links, and
the reliable layer re-establishes that guarantee underneath it, whatever
the fault plan does.  Committed results therefore stay bit-identical to
the sequential engine — the property the test suite checks exhaustively.
"""

from __future__ import annotations

import heapq
import itertools
import random
import weakref
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.event import Event
from ..core.record import Record
from ..core.stats import RunStats
from ..core.vtime import VirtualTime
from .link import InLink, OutLink, owed
from .plan import FaultPlan, LinkFaults
from .recovery import (ProcessorCheckpoint, checkpoint_processor,
                       recover_processor)

#: A directed processor pair.
Link = Tuple[int, int]


class Packet(Record):
    """One transmitted copy of a message on a processor link.

    Carries the link identity and the per-link sequence number the
    reliable layer needs for dedup/reordering.  Exposes the event's
    ``time``/``dst``/``src``/``sign`` so the machine's GVT and
    release-floor scans can treat inbox entries uniformly.
    """

    __slots__ = ("link", "seq", "event")

    def __init__(self, link: Link, seq: int, event: Event) -> None:
        self.link = link
        self.seq = seq
        self.event = event

    @property
    def time(self) -> VirtualTime:
        return self.event.time

    @property
    def dst(self) -> int:
        return self.event.dst

    @property
    def src(self) -> int:
        return self.event.src

    @property
    def sign(self) -> int:
        return self.event.sign


class PerfectFabric:
    """Lossless FIFO transport (the pre-fabric behaviour, verbatim)."""

    plan: Optional[FaultPlan] = None

    #: Conformance hook (repro.harness): never fires for a perfect
    #: network, but the machine assigns it uniformly.
    tracer = None

    def __init__(self) -> None:
        self.machine = None
        self.stats = RunStats()
        self._seq = itertools.count()

    # -- lifecycle -----------------------------------------------------
    def bind(self, machine) -> None:
        # Weak: the machine holds this fabric (see ParallelMachine).
        self.machine = weakref.proxy(machine)
        for proc in machine.procs:
            proc.ingress = None

    def on_run_start(self, machine) -> None:
        pass

    # -- data path -----------------------------------------------------
    def send(self, sender, dst_proc, event: Event) -> None:
        sender.clock += self.machine.cost.remote_send
        deliver_at = sender.clock + self.machine.cost.remote_latency
        heapq.heappush(dst_proc.inbox, (deliver_at, next(self._seq), event))

    # -- protocol hooks (all no-ops for a perfect network) -------------
    def poll(self, proc) -> None:
        pass

    def fire_all(self) -> None:
        pass

    def on_gvt_round(self, machine) -> None:
        pass

    def pending_events(self) -> Iterable[Event]:
        return ()

    def has_pending(self) -> bool:
        return False

    def crash(self, index: int) -> None:
        from ..parallel.engine import ProtocolError
        raise ProtocolError(
            "crash-recovery needs the reliable fabric: construct the "
            "machine with a FaultPlan (fault_plan=FaultPlan(...)) to "
            "enable durable checkpoints and journal replay")


class ReliableFabric:
    """Reliable exactly-once FIFO delivery over a faulty link model."""

    #: Conformance hook (repro.harness): records drop / retransmit /
    #: durable-checkpoint / crash actions when attached by the machine.
    tracer = None

    def __init__(self, plan: Optional[FaultPlan] = None,
                 recovery: Optional[bool] = None) -> None:
        self.plan = plan or FaultPlan()
        #: Durable checkpoints are taken when recovery is enabled —
        #: implied by a crash schedule, or forced for ``machine.kill()``.
        self.recovery = (self.plan.needs_recovery if recovery is None
                         else recovery)
        self.machine = None
        self.stats = RunStats()
        self._seq = itertools.count()
        #: The link state machine (:mod:`.link`); this fabric drives it
        #: from the model clock and ages an unacked send by its
        #: transmission attempts.
        self._senders: Dict[Link, OutLink] = {}
        self._receivers: Dict[Link, InLink] = {}
        #: Copies currently sitting in some inbox, per (link, seq).
        #: Lets the global-stall recovery revive only messages that are
        #: genuinely *lost* instead of blasting every unacked send.
        self._inflight: Dict[Tuple[Link, int], int] = {}
        #: Per-sender-processor retransmit timers: (due, link, seq).
        self._timers: Dict[int, List[Tuple[float, Link, int]]] = {}
        self._checkpoints: Dict[int, ProcessorCheckpoint] = {}
        self._ckpt_sender_next: Dict[int, Dict[Link, int]] = {}
        self._ckpt_recv_expected: Dict[int, Dict[Link, int]] = {}
        self.rto_base = 1.0
        self.rto_max = 16.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, machine) -> None:
        self.machine = weakref.proxy(machine)
        cost = machine.cost
        plan = self.plan
        # The base timeout must comfortably exceed the worst plausible
        # one-way latency, or healthy links drown in spurious (deduped,
        # but costly) retransmissions.
        worst = (cost.remote_latency + plan.jitter
                 + (plan.reorder_magnitude if plan.reorder else 0.0)
                 + (plan.spike_magnitude if plan.spike else 0.0))
        self.rto_base = 4.0 * max(worst, cost.remote_latency, 0.25)
        self.rto_max = 16.0 * self.rto_base
        for proc in machine.procs:
            proc.ingress = self._ingress

    def on_run_start(self, machine) -> None:
        if self.recovery and not self._checkpoints:
            self._take_checkpoints()

    def _sender(self, link: Link) -> OutLink:
        state = self._senders.get(link)
        if state is None:
            state = OutLink(LinkFaults(self.plan, link))
            self._senders[link] = state
        return state

    def _receiver(self, link: Link) -> InLink:
        state = self._receivers.get(link)
        if state is None:
            state = InLink()
            self._receivers[link] = state
        return state

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------
    def send(self, sender, dst_proc, event: Event) -> None:
        link = (sender.index, dst_proc.index)
        seq = self._sender(link).stage(event, 1, self.stats)
        if seq is None:
            return
        sender.clock += self.machine.cost.remote_send
        self._transmit(link, seq, event)
        self._arm_timer(sender, link, seq, attempts=1)

    def _transmit(self, link: Link, seq: int, event: Event) -> None:
        state = self._sender(link)
        faults = state.faults
        if faults.should_drop(seq):
            self.stats.dropped += 1
            if self.tracer is not None:
                self.tracer.record("drop", link[0], event.dst, event.time,
                                   seq=seq, to_proc=link[1])
            return  # the armed timer will retransmit
        copies = faults.copies()
        if copies > 1:
            self.stats.duplicated += 1
        src = self.machine.procs[link[0]]
        dst = self.machine.procs[link[1]]
        latency = self.machine.cost.remote_latency
        for _ in range(copies):
            extra, reordered = faults.extra_latency()
            if reordered:
                self.stats.reordered += 1
            deliver_at = src.clock + latency + extra
            key = (link, seq)
            self._inflight[key] = self._inflight.get(key, 0) + 1
            heapq.heappush(dst.inbox,
                           (deliver_at, next(self._seq),
                            Packet(link, seq, event)))

    def _arm_timer(self, sender, link: Link, seq: int,
                   attempts: int) -> None:
        backoff = min(self.rto_base * (2 ** (attempts - 1)), self.rto_max)
        heap = self._timers.setdefault(sender.index, [])
        heapq.heappush(heap, (sender.clock + backoff, link, seq))

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------
    def poll(self, proc) -> None:
        """Fire this processor's due retransmit timers."""
        heap = self._timers.get(proc.index)
        while heap and heap[0][0] <= proc.clock:
            _due, link, seq = heapq.heappop(heap)
            self._maybe_retransmit(link, seq)

    def fire_all(self) -> None:
        """Force-retransmit every *lost* message (global stall rounds).

        A fully stalled machine cannot wait for sender clocks to reach
        timer deadlines — nothing is advancing them — so the recovery
        barrier forces outstanding retransmissions.  Only messages with
        no live copy in any inbox are revived: an unacked message whose
        copy is still queued will be delivered when its processor next
        acts, and blasting it again would flood the receivers with
        to-be-deduped traffic (the stall rounds of lookahead-free
        conservative runs happen constantly).
        """
        for index, heap in list(self._timers.items()):
            # Drain first: _maybe_retransmit re-arms into this same heap,
            # and those fresh timers must survive this sweep.
            entries, heap[:] = list(heap), []
            fired = set()
            for due, link, seq in entries:
                key = (link, seq)
                if key in fired:
                    continue
                if seq not in self._senders[link].unacked:
                    continue  # acknowledged; retire the timer
                if self._inflight.get(key, 0) > 0:
                    # Copy still queued at the receiver: not lost.
                    heapq.heappush(heap, (due, link, seq))
                    continue
                fired.add(key)
                self._maybe_retransmit(link, seq)

    def _maybe_retransmit(self, link: Link, seq: int) -> None:
        state = self._sender(link)
        if seq not in state.unacked:
            return  # acknowledged since the timer was armed
        event, attempts = state.unacked[seq]
        sender = self.machine.procs[link[0]]
        if self._inflight.get((link, seq), 0) > 0:
            # A copy is still queued at the receiver — the message is
            # slow, not lost.  Deadlock-recovery rounds fence every
            # clock forward, which would otherwise mass-expire timers
            # and flood the fabric with to-be-deduped retransmissions.
            self._arm_timer(sender, link, seq, attempts=attempts)
            return
        attempts += 1
        state.unacked[seq] = (event, attempts)
        sender.clock += self.machine.cost.remote_send
        self.stats.retransmitted += 1
        if self.tracer is not None:
            self.tracer.record("retransmit", link[0], event.dst,
                               event.time, seq=seq, to_proc=link[1],
                               attempts=attempts)
        self._transmit(link, seq, event)
        self._arm_timer(sender, link, seq, attempts=attempts)

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def _ingress(self, item) -> Tuple[Event, ...]:
        if isinstance(item, Event):  # pragma: no cover - defensive
            return (item,)
        link, seq, event = item.link, item.seq, item.event
        key = (link, seq)
        live = self._inflight.get(key, 0) - 1
        if live > 0:
            self._inflight[key] = live
        else:
            self._inflight.pop(key, None)
        # Acknowledgement: modelled as an instantaneous control message
        # (its cost rides the remote_recv charge).
        self._sender(link).acked(seq, self.stats)
        return self._receiver(link).accept(seq, event, self.stats)

    # ------------------------------------------------------------------
    # Global-state hooks (GVT, termination, release floors)
    # ------------------------------------------------------------------
    def pending_events(self) -> Iterable[Event]:
        """Every event the fabric still owes a delivery for.

        Unacknowledged sends (possibly dropped — their only copies may
        exist nowhere but the sender's retransmit buffer) and
        out-of-order copies parked in receiver buffers.  GVT and the
        release floors must treat these as future arrivals, or a lost
        message could be committed past.
        """
        return owed(self._senders.values(), self._receivers.values())

    def has_pending(self) -> bool:
        return next(self.pending_events(), None) is not None

    def on_gvt_round(self, machine) -> None:
        for proc in machine.procs:
            self.poll(proc)
        if self.recovery:
            self._take_checkpoints()

    # ------------------------------------------------------------------
    # Crash-recovery
    # ------------------------------------------------------------------
    def _take_checkpoints(self) -> None:
        machine = self.machine
        for proc in machine.procs:
            index = proc.index
            self._checkpoints[index] = checkpoint_processor(
                proc, self._checkpoints.get(index))
            if self.tracer is not None:
                self.tracer.record("checkpoint", index, ctx="durable")
            self._ckpt_sender_next[index] = {
                link: state.next_seq
                for link, state in self._senders.items()
                if link[0] == index}
            self._ckpt_recv_expected[index] = {
                link: self._receiver(link).expected
                for link in self._senders
                if link[1] == index}
        self._prune_journals()

    def _prune_journals(self) -> None:
        """Discard journal entries covered by the receiver's checkpoint.

        An entry with ``seq < expected-at-checkpoint`` was delivered
        *and* survives inside the receiver's durable image, so no
        recovery can ever need it again.
        """
        for link, state in self._senders.items():
            marks = self._ckpt_recv_expected.get(link[1], {})
            floor = marks.get(link)
            if floor is None:
                continue
            for seq in [s for s in state.journal if s < floor]:
                del state.journal[seq]
                state.faults.forget(seq)

    def crash(self, index: int) -> None:
        """Kill processor ``index`` and recover it from its checkpoint.

        The processor's volatile state (LP states, queues, logs, clock)
        is discarded and replaced by the latest durable checkpoint; the
        fabric then reconciles it with the world:

        * **Incoming links** — every peer replays its journal from the
          checkpoint's delivery horizon, re-feeding both the messages
          the crash destroyed and everything genuinely in flight.
        * **Outgoing links** — messages the dead incarnation sent after
          the checkpoint are injected into the owning LP's
          ``withheld`` list: the restored (deterministic)
          re-execution *reuses* each one it regenerates — the receiver
          already holds it, or the retransmit machinery is still
          delivering it — and cancels, by original event id, any the
          new trajectory provably abandons.  Post-checkpoint
          antimessages are marked *spent* so rollback replays cannot
          emit unmatchable second copies.
        * **Conservative epochs** are bumped past the crash-time value,
          so stale channel promises held by receivers can never collide
          with post-recovery conservative phases.
        """
        from ..parallel.engine import ProtocolError

        machine = self.machine
        if not 0 <= index < len(machine.procs):
            raise ValueError(f"no processor {index}")
        ckpt = self._checkpoints.get(index)
        if ckpt is None:
            raise ProtocolError(
                f"no durable checkpoint for processor {index}: enable "
                f"recovery (a crash schedule or recovery=True) before "
                f"the run starts")
        proc = machine.procs[index]
        self.stats.crashes += 1
        if self.tracer is not None:
            self.tracer.record("crash", index)
        # Copies queued at the dying processor are destroyed with it.
        for _at, _seq, item in proc.inbox:
            if isinstance(item, Packet):
                key = (item.link, item.seq)
                live = self._inflight.get(key, 0) - 1
                if live > 0:
                    self._inflight[key] = live
                else:
                    self._inflight.pop(key, None)
        marks = self._ckpt_sender_next.get(index, {})
        recover_processor(proc, ckpt, machine.gvt, [
            (list(state.window(marks.get(link, 0)).values()),
             state.spent_anti.update)
            for link, state in self._senders.items() if link[0] == index],
            restored=machine.drop_floors)
        self._replay_incoming(proc, index)
        self.stats.recoveries += 1

    def _replay_incoming(self, proc, index: int) -> None:
        marks = self._ckpt_recv_expected.get(index, {})
        latency = self.machine.cost.remote_latency
        for link, state in self._senders.items():
            if link[1] != index:
                continue
            horizon = marks.get(link, 0)
            self._receiver(link).rewind(horizon)
            src = self.machine.procs[link[0]]
            # Not owed again (no tick): the copies go lossless into the
            # inbox, where GVT sees them; owing them too would feed them
            # to it a second time through pending_events().
            for seq, event in state.replay(horizon):
                deliver_at = src.clock + latency
                heapq.heappush(proc.inbox,
                               (deliver_at, next(self._seq),
                                Packet(link, seq, event)))
                self.stats.replayed += 1


def install_jitter(machine, rng, magnitude: float = 5.0) -> None:
    """Route the machine's remote traffic through a jittered fabric.

    Historically a test-local hack that monkey-patched processor routes;
    now a thin wrapper that installs a :class:`ReliableFabric` whose
    fault plan adds seeded uniform latency noise.  Per-link sequence
    numbers restore FIFO order at the receiver, so the synchronization
    protocol's in-order channel assumption still holds — the jitter
    explores arrival *interleavings* across links, which is the point.

    ``rng`` may be a ``random.Random`` (a seed is drawn from it) or an
    integer seed.
    """
    if isinstance(rng, random.Random):
        seed = rng.getrandbits(64)
    else:
        seed = int(rng)
    plan = FaultPlan(seed=seed, jitter=magnitude)
    machine.install_fabric(ReliableFabric(plan))
