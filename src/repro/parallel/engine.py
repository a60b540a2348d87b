"""Per-processor synchronization engine: the mixed PDES protocol.

Each modelled processor owns a set of LP *runtimes*.  A runtime wraps one
LP with everything its synchronization mode needs:

* an input queue of timestamped events,
* per-input-channel clocks (promises used by the conservative safety
  rule),
* for optimistic mode, the processed-event log with pre-state snapshots
  and the output log used to send antimessages on rollback,
* adaptation counters for the dynamic mode.

The protocol implemented is the paper's lookahead-free self-adaptive
mixed protocol:

* **Optimistic** runtimes execute the lowest-timestamp queued event
  eagerly, snapshotting first.  A straggler (positive event with a
  timestamp *strictly* below an already-processed one) or a matching
  antimessage triggers a rollback: state is restored, squashed events are
  re-queued and antimessages are sent for every output of the squashed
  executions.  Events with *equal* timestamps never roll back — that is
  the arbitrary simultaneous-event model the ``(pt, lt)`` tie-breaking
  makes sound (and the main saving over the user-consistent model).
* **Conservative** runtimes execute their queue head only when it is
  *safe*: its timestamp must not exceed every input channel's bound.  The
  bound of a channel whose sender is conservative is the largest
  ``send_time`` promise received on it (senders emit in non-decreasing
  ``send_time`` order because sends always happen at the sender's current
  virtual time); the bound of a channel whose sender is optimistic is the
  last committed GVT — an optimistic LP can never roll back below GVT,
  so those events are final (this is how a conservative LP "must be able
  to handle events from an optimistic LP without rollback").  When
  lookahead is available, null messages raise the channel bounds; without
  it, progress beyond a stall relies on the machine's global
  deadlock-recovery rounds, exactly the lookahead-free regime the paper
  targets.
* **Dynamic** runtimes switch between the two modes using rollback-rate /
  blocking-rate hysteresis (Sec. 4: "the LPs self-adapt ... to find the
  best configuration").

A ``user_consistent=True`` engine reproduces the comparison model of the
paper's Fig. 4: optimistic runtimes also roll back on *equal* timestamps,
and conservative runtimes require a *strict* bound (they must be certain
the simultaneous set is complete), which without lookahead degenerates
into one global synchronization per event — the overhead the paper's
protocol is designed to avoid.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Tuple, Union)

from ..config import PROTOCOLS
from ..core.event import Event, EventId, EventKind
from ..core.lp import LogicalProcess
from ..core.model import Model, SyncMode
from ..core.stats import RunStats
from ..core.vtime import INFINITY, MINUS_INFINITY, VirtualTime
from .cost import SHARED_MEMORY, CostModel
from .partition import PARTITIONERS, Partition

#: Named protocol configurations (paper Sec. 4).


class ProtocolError(RuntimeError):
    """A synchronization invariant was violated (engine bug trap)."""


@dataclass
class AdaptPolicy:
    """Hysteresis thresholds for the dynamic mode.

    Switching to conservative is deliberately reluctant (an LP must
    *demonstrably* thrash) and switching back is cheap: a conservative
    LP that keeps blocking shows it is paying for safety it did not
    need.  The escape path must not depend on executions — a blocked
    conservative LP may never execute again without it.
    """

    #: Window length (executions) over which rollback rate is measured.
    window: int = 48
    #: Switch OPT -> CONS when squashed/executed exceeds this in a window.
    rollback_ratio_high: float = 0.75
    #: Switch CONS -> OPT after this many blocked polls in a row (each
    #: park/re-arm cycle — i.e. roughly one per GVT round — counts one).
    blocked_polls_high: int = 6
    #: Minimum executions between OPT -> CONS switches of the same LP.
    dwell: int = 96


@dataclass
class _Entry:
    """One processed event in an optimistic runtime's log."""

    __slots__ = ("event", "pre_snapshot", "pre_now", "sent")

    event: Event
    pre_snapshot: Any
    pre_now: VirtualTime
    sent: List[Event]


class LPRuntime:
    """Synchronization wrapper around one LP on one processor."""

    __slots__ = (
        "lp", "mode", "dynamic", "cons_epoch", "queue", "cancelled",
        "negatives", "processed", "channel_clocks", "preds", "succs",
        "window_executed", "window_squashed", "blocked_streak",
        "since_switch", "last_null_promise", "release_floor",
        "since_snapshot", "withheld", "reuse_pending", "blockable", "armed",
    )

    def __init__(self, lp: LogicalProcess, mode: SyncMode,
                 preds: Set[int], succs: Set[int]) -> None:
        if mode is SyncMode.DYNAMIC:
            resolved = (SyncMode.OPTIMISTIC if lp.checkpointable
                        else SyncMode.CONSERVATIVE)
            dynamic = lp.checkpointable
        else:
            resolved = mode
            dynamic = False
        if resolved is SyncMode.OPTIMISTIC and not lp.checkpointable:
            # Heavy-state processes cannot save their state (paper Sec. 4).
            resolved = SyncMode.CONSERVATIVE
        self.lp = lp
        self.mode = resolved
        self.dynamic = dynamic
        #: Can this runtime ever fail the safety test?  Fixed for life:
        #: static modes never change, and a dynamic runtime may turn
        #: conservative at any time.  A ready-heap entry of a blockable
        #: runtime is a *poll* (it feeds ``blocked_polls`` and
        #: ``blocked_streak``, which drive GVT cadence and adaptation);
        #: for any other runtime an entry only schedules, so the heap
        #: holds exactly the keys listed in ``armed`` for it.
        self.blockable = dynamic or resolved is SyncMode.CONSERVATIVE
        #: Keys of this runtime's ready-heap entries, strictly
        #: decreasing (non-blockable runtimes only).  The last one is
        #: the next to surface; an earlier one is a head that a lower
        #: arrival superseded, kept so it is not pushed a second time.
        self.armed: List[tuple] = []
        #: Bumped each time the LP (re)enters conservative mode; receivers
        #: only trust channel promises tagged with the current epoch.
        self.cons_epoch = 0
        self.queue: List[Tuple[tuple, Event]] = []
        self.cancelled: Set[EventId] = set()
        self.negatives: Dict[EventId, Event] = {}
        self.processed: List[_Entry] = []
        #: src lp_id -> (sender cons_epoch, promised virtual time).
        self.channel_clocks: Dict[int, Tuple[int, VirtualTime]] = {}
        self.preds = preds
        self.succs = succs
        self.window_executed = 0
        self.window_squashed = 0
        self.blocked_streak = 0
        self.since_switch = 0
        self.last_null_promise: Dict[int, VirtualTime] = {}
        #: Distance-based lower bound on future arrivals, raised by the
        #: release-floor sweep (``parallel.floors``): the modelled
        #: machine's at each global round, a ring worker's at its token
        #: visits and blocked quantum ends.
        self.release_floor: VirtualTime = MINUS_INFINITY
        #: Executions since the last state snapshot (interval
        #: checkpointing; see Processor.checkpoint_interval).
        self.since_snapshot = 0
        #: Withheld sends (crash recovery): the journaled sends of a dead
        #: incarnation, injected so the restored replay reuses what it
        #: regenerates and cancels what it provably cannot anymore.
        self.withheld: List[Event] = []
        #: Guaranteed-reuse injections (crash recovery, conservative
        #: LPs only).  A conservative LP never rolls back, so its
        #: restored replay deterministically regenerates every windowed
        #: send — these entries exist purely to suppress the duplicate
        #: re-send and can never legitimately become antimessages.
        #: Unlike ``withheld`` they therefore do NOT pin the
        #: cancellation horizon or hold GVT down; pinning the horizon at
        #: an entry's own timestamp would block the very conservative
        #: execution whose re-send the entry is waiting to match (the
        #: conservative crash-recovery self-deadlock).
        self.reuse_pending: List[Event] = []

    # ------------------------------------------------------------------
    # Queue plumbing
    # ------------------------------------------------------------------
    def push(self, event: Event) -> None:
        heapq.heappush(self.queue, (event.sort_key(), event))

    def head(self) -> Optional[Event]:
        """The earliest live queued event (skipping annihilated ones).

        Afterwards ``queue[0]`` *is* the head: callers read its stored
        sort key as ``queue[0][0]`` instead of recomputing it.
        """
        queue = self.queue
        cancelled = self.cancelled
        if not cancelled:
            return queue[0][1] if queue else None
        while queue:
            event = queue[0][1]
            if event.eid in cancelled:
                heapq.heappop(queue)
                cancelled.discard(event.eid)
                continue
            return event
        return None

    def pop(self) -> Event:
        event = self.head()
        if event is None:
            raise ProtocolError(f"pop on empty queue of {self.lp.name}")
        heapq.heappop(self.queue)
        return event

    def queue_min_time(self) -> VirtualTime:
        return INFINITY if self.head() is None else self.queue[0][0][0]

    def idle(self) -> bool:
        """Holds no protocol state: nothing queued, logged, parked or
        withheld (the condition for leaving ``Processor.live``).  A
        queue of annihilated entries only cannot occur between engine
        calls — every mutation ends in ``_arm``, whose ``head()`` drops
        them — and would merely keep the runtime live a little longer.
        """
        return not (self.queue or self.processed or self.negatives
                    or self.withheld or self.reuse_pending)

    # ------------------------------------------------------------------
    # Mode-dependent views
    # ------------------------------------------------------------------
    @property
    def now(self) -> VirtualTime:
        return self.lp.now

    def rollback_ratio(self) -> float:
        if self.window_executed == 0:
            return 0.0
        return self.window_squashed / self.window_executed

    def reset_window(self) -> None:
        self.window_executed = 0
        self.window_squashed = 0
        self.blocked_streak = 0

    # ------------------------------------------------------------------
    # Durable image (crash recovery)
    # ------------------------------------------------------------------
    def image(self) -> tuple:
        """What of this runtime survives a crash: the LP's *durable*
        state and clock, then every slot but the wiring (``lp``,
        ``dynamic``, ``preds``, ``succs``, ``blockable``) and ``armed``,
        which the restoring processor rebuilds from its ready heap.

        The durable state, not the cheap rollback snapshot: an image may
        be restored in a fresh process (dist kill-recovery) where
        process-relative state — SignalLP's history length, the live eid
        counter — has no live object to lean on.  Containers are copied
        here and again by :meth:`restore`, so an image is never aliased
        by a live runtime and may be shared between checkpoints.
        """
        lp = self.lp
        if not lp.checkpointable:
            raise ProtocolError(
                f"crash-recovery needs every LP durably checkpointable, "
                f"but {lp.name!r} is not (heavy-state process); disable "
                f"the crash schedule or re-partition")
        return (lp.durable_state(), lp.now, self.mode, self.cons_epoch,
                list(self.queue), set(self.cancelled), dict(self.negatives),
                [(e.event, e.pre_snapshot, e.pre_now, list(e.sent))
                 for e in self.processed],
                dict(self.channel_clocks), dict(self.last_null_promise),
                list(self.withheld), list(self.reuse_pending),
                self.release_floor, self.window_executed,
                self.window_squashed, self.blocked_streak, self.since_switch,
                self.since_snapshot)

    def restore(self, image: tuple) -> None:
        """Overwrite this runtime (and its LP) with an :meth:`image`."""
        (state, now, self.mode, self.cons_epoch, queue, cancelled,
         negatives, processed, channel_clocks, last_null_promise, withheld,
         reuse_pending, self.release_floor, self.window_executed,
         self.window_squashed, self.blocked_streak, self.since_switch,
         self.since_snapshot) = image
        lp = self.lp
        lp.restore_durable(state)
        lp.now = now
        lp._outbox = []
        self.queue = list(queue)
        self.cancelled = set(cancelled)
        self.negatives = dict(negatives)
        self.processed = [_Entry(event, snap, pre_now, list(sent))
                          for event, snap, pre_now, sent in processed]
        self.channel_clocks = dict(channel_clocks)
        self.last_null_promise = dict(last_null_promise)
        self.withheld = list(withheld)
        self.reuse_pending = list(reuse_pending)


class Processor:
    """One modelled processor: owns LP runtimes and executes the protocol.

    The processor charges every action to its model-time ``clock`` using
    the machine's :class:`CostModel`.  Message routing goes through the
    ``route`` callback installed by the machine (which decides local
    vs. remote and charges accordingly).
    """

    def __init__(self, index: int, cost: CostModel,
                 user_consistent: bool = False,
                 use_lookahead: bool = False,
                 adapt: Optional[AdaptPolicy] = None,
                 checkpoint_interval: int = 1) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.index = index
        self.cost = cost
        self.user_consistent = user_consistent
        self.use_lookahead = use_lookahead
        self.adapt = adapt or AdaptPolicy()
        #: Snapshot every k-th event per LP (1 = the paper's per-event
        #: state saving).  Larger intervals trade rollback cost
        #: (coast-forward replay) for memory and snapshot time — the
        #: classic Time Warp checkpointing trade-off.
        self.checkpoint_interval = checkpoint_interval
        self.clock = 0.0
        self.runtimes: Dict[int, LPRuntime] = {}
        #: Ids of runtimes that hold protocol state (queue, log, parked
        #: negatives, withheld sends).  Entered by ``deliver`` — the one
        #: door every event passes — and pruned by ``fossil_collect``;
        #: the per-round services walk this set, not ``runtimes``, so a
        #: GVT round costs O(touched LPs).
        self.live: Set[int] = set()
        #: Durable-checkpoint bookkeeping (``fabric.recovery``): the
        #: last image taken of this processor, and the ids of runtimes
        #: that may differ from it — everything live when it was taken
        #: plus whatever entered ``live`` (same two doors) or was
        #: written from outside the engine (release floors) since.
        self.imaged = None
        self.touched: Set[int] = set()
        #: Inbox of (deliver_at, seq, event) from remote processors.
        self.inbox: List[Tuple[float, int, Event]] = []
        #: Same-processor messages awaiting delivery (drained in act();
        #: a FIFO queue instead of recursive delivery keeps rollback
        #: cascades iterative and preserves send order).
        self.local_fifo = deque()
        #: Runtimes with a queued head, keyed for lowest-timestamp-first:
        #: ``(head sort key, lp id)``, lazily deleted, each distinct entry
        #: once.  Entries of blockable runtimes are polls, one per arm:
        #: ``copies`` holds how many each stands for.  Entries of the
        #: rest mirror ``LPRuntime.armed`` (see docs/protocol.md,
        #: "Readiness bookkeeping").
        self.ready: List[Tuple[tuple, int]] = []
        self.copies: Dict[Tuple[tuple, int], int] = {}
        self.blocked: Set[int] = set()
        self.stats = RunStats()
        #: Conformance hooks (repro.harness): a Tracer records every
        #: protocol-relevant action; a Scheduler turns the tie-breaking
        #: choice points into recorded/replayed decisions.  Both default
        #: to None, so the uninstrumented fast paths cost one attribute
        #: check.
        self.tracer = None
        self.scheduler = None
        # Installed by the machine:
        self.route: Callable[[Event], None] = lambda event: None
        self.runtime_of: Callable[[int], LPRuntime] = None  # type: ignore
        #: Receiver-side fabric hook: maps one popped inbox item to the
        #: events actually deliverable now (dedup/reorder handling for
        #: the reliable fabric).  None = the item *is* the event.
        self.ingress: Optional[Callable[[Any], Iterable[Event]]] = None
        self.gvt_bound: VirtualTime = MINUS_INFINITY
        #: Cancellation horizon: lower bound on the virtual time of any
        #: withheld or in-flight cancellation anywhere in the
        #: system.  Maintained by the backend — lowered eagerly through
        #: ``cancel_note`` whenever a cancellation comes into existence,
        #: raised (recomputed exactly) only at global rounds (token
        #: visits on the worker ring).  The
        #: conservative safety rule may commit only strictly below it.
        self.cancel_floor: VirtualTime = INFINITY
        #: Backend hook invoked with the timestamp of every new
        #: outstanding cancellation (withheld entry or routed anti).
        self.cancel_note: Optional[Callable[[VirtualTime], None]] = None
        self.until: Optional[int] = None
        #: Bounded optimism (docs/protocol.md, "Bounded optimism"): no
        #: event with a physical time beyond this executes; ``None`` is
        #: unbounded.  Written only by ``WorkerCore``, which moves it to
        #: ``GVT.pt + delta`` at each commit; the modelled machine and
        #: the harness leave it alone.
        self.window_end: Optional[int] = None
        self.lookahead_of: Callable[[int, int], Optional[Tuple[int, int]]] \
            = lambda src, dst: None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def adopt(self, runtime: LPRuntime) -> None:
        self.runtimes[runtime.lp.lp_id] = runtime

    def seed(self, event: Event) -> None:
        """Insert an initial event without charging model time."""
        self.deliver(event)
        self.drain_local()

    # ------------------------------------------------------------------
    # Readiness bookkeeping
    # ------------------------------------------------------------------
    def _arm(self, runtime: LPRuntime) -> None:
        """(Re-)insert a runtime into the ready heap for its queue head."""
        lp_id = runtime.lp.lp_id
        self.blocked.discard(lp_id)
        if runtime.head() is not None:
            self._push_ready(runtime.queue[0][0], runtime)

    def _push_ready(self, key: tuple, runtime: LPRuntime,
                    copies: int = 1) -> None:
        """Enter ``(key, runtime)`` into the ready heap — always for a
        blockable runtime (the entry is a poll; ``copies`` of them), at
        most once per key and only below its other entries for one that
        cannot block."""
        entry = (key, runtime.lp.lp_id)
        if runtime.blockable:
            held = self.copies.get(entry)
            if held:
                self.copies[entry] = held + copies
                return
            self.copies[entry] = copies
        else:
            armed = runtime.armed
            if armed and armed[-1] <= key:
                # An entry of this runtime surfaces at or before the
                # head; it is checked against the queue when popped.
                return
            armed.append(key)
        heapq.heappush(self.ready, entry)

    def _pop_safe(self) -> Optional[Tuple[tuple, LPRuntime]]:
        """Pop ready entries up to the first whose runtime may execute
        its queue head now; ``None`` when the heap runs out.

        An entry of a blockable runtime that fails the safety test is a
        blocked poll, with all its side effects — once per copy, in the
        order the copies would surface one by one.  Where every copy
        surfaces back to back with the same effect, they go in one step:
        a dead or beyond-horizon head drops them all, and a stale entry
        below the head re-keys them all to it (each re-armed copy lies
        above the rest).  A stale entry above the head re-arms one copy,
        which then surfaces before the next.

        The execution window is tested on the lowest entry *before* it
        is popped.  No queue head lies below the heap's lowest key
        (every arm pushes, or ``armed`` already holds a key at or below
        the head), so one comparison speaks for the whole processor:
        nothing is popped, parked or re-armed, and the caller reports
        "no progress".  A stale entry inside the window is popped and
        re-armed as ever.
        """
        ready = self.ready
        copies = self.copies
        runtimes = self.runtimes
        until = self.until
        window_end = self.window_end
        heappop = heapq.heappop
        while ready:
            entry = ready[0]
            key, lp_id = entry
            if window_end is not None and key[0][0] > window_end:
                self.stats.window_stalls += 1
                return None
            runtime = runtimes[lp_id]
            if not runtime.blockable:
                heappop(ready)
                runtime.armed.pop()  # always ``key``: lowest surfaces first
                head = runtime.head()
                if head is None:
                    continue
                if runtime.queue[0][0] != key:
                    # Stale entry: the queue changed; re-arm with the truth.
                    self._arm(runtime)
                    continue
                if until is not None and head.time.pt > until:
                    # Beyond the simulation horizon; park it unarmed.
                    continue
                return key, runtime  # it cannot block
            held = copies[entry]
            head = runtime.head()
            if head is not None:
                head_key = runtime.queue[0][0]
                if head_key != key:
                    # Stale entry: the queue changed; re-arm with the truth.
                    self.blocked.discard(lp_id)
                    if key < head_key:
                        heappop(ready)
                        del copies[entry]
                        self._push_ready(head_key, runtime, held)
                    else:
                        self._take_copy(entry, held)
                        self._push_ready(head_key, runtime)
                    continue
                if until is None or head.time.pt <= until:
                    self._take_copy(entry, held)
                    if self._safe(runtime, head):
                        return key, runtime
                    self.blocked.add(lp_id)
                    runtime.blocked_streak += 1
                    self.stats.blocked_polls += 1
                    if self.use_lookahead:
                        self._send_nulls(runtime)
                    self._maybe_go_optimistic(runtime)
                    continue
            # Nothing queued, or beyond the simulation horizon: park it
            # unarmed.
            heappop(ready)
            del copies[entry]
        return None

    def _take_copy(self, entry: Tuple[tuple, int], held: int) -> None:
        """Remove one copy of the lowest ready entry."""
        if held == 1:
            heapq.heappop(self.ready)
            del self.copies[entry]
        else:
            self.copies[entry] = held - 1

    def rearm_blocked(self) -> None:
        """After a GVT advance, blocked conservative LPs may be safe."""
        for lp_id in list(self.blocked):
            self._arm(self.runtimes[lp_id])

    def rearm(self, lp_ids) -> bool:
        """Re-arm those of ``lp_ids`` that are blocked (their release
        floor rose); True if there was one."""
        blocked = self.blocked
        any_armed = False
        for lp_id in lp_ids:
            if lp_id in blocked:
                self._arm(self.runtimes[lp_id])
                any_armed = True
        return any_armed

    def has_work_at(self) -> float:
        """Earliest model time at which this processor can act.

        ``clock`` if it has a (possibly) ready runtime; otherwise the
        earliest inbox delivery; +inf when fully asleep.
        """
        if self.ready or self.local_fifo:
            return self.clock
        if self.inbox:
            return max(self.clock, self.inbox[0][0])
        return float("inf")

    # ------------------------------------------------------------------
    # One scheduling step (called by the machine)
    # ------------------------------------------------------------------
    def act(self) -> bool:
        """Ingest due messages and execute at most one event.

        Returns True if any event was executed (progress made).
        """
        if not self.ready and not self.local_fifo and self.inbox:
            self.clock = max(self.clock, self.inbox[0][0])
        self._ingest()
        progressed = self._execute_one()
        self.drain_local()
        return progressed

    def _ingest(self) -> None:
        self.drain_local()
        while self.inbox and self.inbox[0][0] <= self.clock:
            _at, _seq, item = heapq.heappop(self.inbox)
            self.clock += self.cost.remote_recv
            # The fabric's receiver-side hook turns one transmitted copy
            # into zero (duplicate / out-of-order buffering) or more
            # (gap fill) deliverable events; a perfect fabric delivers
            # the item itself.
            events = (item,) if self.ingress is None else self.ingress(item)
            for event in events:
                self.deliver(event)
                self.drain_local()

    def drain_local(self) -> None:
        """Deliver queued same-processor messages (iteratively)."""
        while self.local_fifo:
            self.deliver(self.local_fifo.popleft())

    # ------------------------------------------------------------------
    # Delivery (local or from the fabric)
    # ------------------------------------------------------------------
    def deliver(self, event: Event) -> None:
        runtime = self.runtimes[event.dst]
        self.live.add(event.dst)
        self.touched.add(event.dst)
        if self.tracer is not None:
            self.tracer.record("recv", self.index, event.dst, event.time,
                               kind=int(event.kind), src=event.src,
                               sign=event.sign,
                               eid=(event.eid.src, event.eid.seq))
        self._note_channel_clock(runtime, event)
        if event.kind is EventKind.NULL:
            self._arm(runtime)
            return
        if event.sign > 0:
            self._deliver_positive(runtime, event)
        else:
            self._deliver_negative(runtime, event)

    def _note_channel_clock(self, runtime: LPRuntime, event: Event) -> None:
        """Update the conservative promise for the event's channel.

        The promise epoch comes from the *message* (stamped by the fabric
        at send time), never from the sender's current state: a message
        sent speculatively must not masquerade as a conservative promise
        just because the sender switched modes before it was delivered.
        """
        if event.src == event.dst or event.src not in runtime.preds:
            # Self events and external stimulus injections carry no
            # channel promise; only declared channels have clocks.
            return
        if event.epoch < 0:
            return  # speculative send or antimessage: no promise
        promise = event.time if event.kind is EventKind.NULL \
            else event.send_time
        stored = runtime.channel_clocks.get(event.src)
        if stored is None or stored[0] < event.epoch:
            runtime.channel_clocks[event.src] = (event.epoch, promise)
        elif stored[0] == event.epoch and promise > stored[1]:
            runtime.channel_clocks[event.src] = (event.epoch, promise)

    def _deliver_positive(self, runtime: LPRuntime, event: Event) -> None:
        pending = runtime.negatives.pop(event.eid, None)
        if pending is not None:
            self.stats.annihilations += 1
            if self.tracer is not None:
                self.tracer.record("annihilate", self.index, event.dst,
                                   event.time,
                                   eid=(event.eid.src, event.eid.seq),
                                   ctx="parked")
            return  # the antimessage was waiting for this positive
        if runtime.processed and runtime.mode is SyncMode.OPTIMISTIC:
            last_time = runtime.processed[-1].event.time
            is_straggler = (event.time <= last_time if self.user_consistent
                            else event.time < last_time)
            if is_straggler:
                index = self._first_entry_not_before(runtime, event.time)
                self._rollback(runtime, index)
        elif runtime.mode is SyncMode.CONSERVATIVE:
            if event.time < runtime.lp.now:
                raise ProtocolError(
                    f"conservative LP {runtime.lp.name} at {runtime.lp.now} "
                    f"received straggler {event}")
        runtime.push(event)
        self._arm(runtime)

    def _deliver_negative(self, runtime: LPRuntime, event: Event) -> None:
        head_match = any(e.eid == event.eid for _k, e in runtime.queue)
        if head_match:
            runtime.cancelled.add(event.eid)
            self.stats.annihilations += 1
            if self.tracer is not None:
                self.tracer.record("annihilate", self.index, event.dst,
                                   event.time,
                                   eid=(event.eid.src, event.eid.seq),
                                   ctx="queued")
            self._arm(runtime)
            return
        for index, entry in enumerate(runtime.processed):
            if entry.event.eid == event.eid:
                # The rollback re-queues the cancelled event along with the
                # other squashed ones; the cancelled-set entry annihilates
                # that single re-queued copy lazily.
                self._rollback(runtime, index)
                runtime.cancelled.add(event.eid)
                self.stats.annihilations += 1
                if self.tracer is not None:
                    self.tracer.record("annihilate", self.index, event.dst,
                                       event.time,
                                       eid=(event.eid.src, event.eid.seq),
                                       ctx="processed")
                self._arm(runtime)
                return
        # The positive has not arrived yet (possible across processors).
        runtime.negatives[event.eid] = event

    def _first_entry_not_before(self, runtime: LPRuntime,
                                time: VirtualTime) -> int:
        """Index of the first processed entry to squash for a straggler.

        Arbitrary model: squash entries with a *strictly greater*
        timestamp (equal-time events commute).  User-consistent model:
        squash equal-time entries too, so the simultaneous set is
        re-processed together.
        """
        entries = runtime.processed
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.user_consistent:
                before = entries[mid].event.time < time
            else:
                before = entries[mid].event.time <= time
            if before:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    # Rollback (Time Warp)
    # ------------------------------------------------------------------
    def _rollback(self, runtime: LPRuntime, index: int) -> None:
        entries = runtime.processed
        if index >= len(entries):
            return
        squashed = entries[index:]
        del entries[index:]
        first = squashed[0]
        if first.pre_snapshot is not None:
            runtime.lp.restore(first.pre_snapshot)
            runtime.lp.now = first.pre_now
        else:
            # Interval checkpointing: land on the nearest earlier
            # snapshot and coast forward — silently re-execute the
            # retained entries up to the rollback target.  Their outputs
            # were already sent and remain valid (only squashed entries'
            # messages get cancelled), and the LPs are deterministic, so
            # replay rebuilds the exact pre-straggler state.
            base = len(entries) - 1
            while entries[base].pre_snapshot is None:
                base -= 1
            anchor = entries[base]
            runtime.lp.restore(anchor.pre_snapshot)
            runtime.lp.now = anchor.pre_now
            for entry in entries[base:]:
                runtime.lp.now = entry.event.time
                runtime.lp.simulate(entry.event)
                runtime.lp.drain_outbox()  # duplicates; discard
                self.clock += self.cost.event
                self.stats.coast_forward_events += 1
        # Force a snapshot on the next execution: rollback hotspots
        # should not pay the coast-forward replay repeatedly.
        runtime.since_snapshot = 10**9
        self.clock += (self.cost.rollback_fixed
                       + self.cost.rollback_per_event * len(squashed))
        self.stats.rollbacks += 1
        lp_id = runtime.lp.lp_id
        if self.tracer is not None:
            self.tracer.record("rollback", self.index, lp_id,
                               first.event.time, squashed=len(squashed))
        for entry in squashed:
            runtime.push(entry.event)
            runtime.window_squashed += 1
            self.stats.events_rolled_back += 1
            for sent in entry.sent:
                self.stats.antimessages += 1
                if self.tracer is not None:
                    self.tracer.record("anti", self.index, lp_id,
                                       sent.time, dst=sent.dst,
                                       eid=(sent.eid.src, sent.eid.seq),
                                       ctx="rollback")
                if self.cancel_note is not None:
                    self.cancel_note(sent.time)
                self.route(sent.antimessage())
        self._arm(runtime)

    def rollback_sends(self, eids: Set[EventId]) -> None:
        """Roll back the log entries that sent the positives ``eids``.

        Crash recovery: these were sent before the restored image was
        taken and cancelled by the dead incarnation after it, so the
        receiver no longer holds them while the restored log still
        claims them.  Nothing guarantees that the replay rolls those
        entries back again by itself (the straggler that did it last
        time may be gone, or annihilated before it can); undoing them
        here makes re-execution send fresh copies.
        """
        for src in sorted({eid.src for eid in eids}):
            runtime = self.runtimes.get(src)
            if runtime is None:
                continue
            for index, entry in enumerate(runtime.processed):
                if any(sent.eid in eids for sent in entry.sent):
                    self._rollback(runtime, index)
                    break

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute_one(self) -> bool:
        if self.scheduler is not None:
            return self._execute_one_controlled()
        found = self._pop_safe()
        if found is None:
            return False
        runtime = found[1]
        self._execute(runtime, runtime.pop())
        return True

    def _execute_one_controlled(self) -> bool:
        """Controlled-scheduler variant of :meth:`_execute_one`.

        Same validation as the base loop, but instead of executing the
        canonical first safe runtime, gather every safe runtime whose
        head ties with it under ``scheduler.tie_key`` and let the
        scheduler pick (choice point ``lp``).  The chosen runtime's
        same-tie queued events then go through
        :meth:`_controlled_pop` (choice point ``event``).
        """
        sched = self.scheduler
        candidates: List[Tuple[tuple, LPRuntime]] = []
        group_key = None
        while True:
            found = self._pop_safe()
            if found is None:
                break
            if not found[1].blockable and any(
                    found[1] is runtime for _key, runtime in candidates):
                # Its superseded entry surfaced inside the tie group and
                # was re-armed at the head already gathered: one LP is
                # one candidate.
                continue
            tie = sched.tie_key(found[0][0])
            if group_key is None:
                group_key = tie
            elif tie != group_key:
                # Beyond the simultaneous group; defer back to the heap.
                self._push_ready(*found)
                break
            candidates.append(found)
        if not candidates:
            return False
        choice = sched.choose("lp", len(candidates)) \
            if len(candidates) > 1 else 0
        for i, item in enumerate(candidates):
            if i != choice:
                self._push_ready(*item)
        runtime = candidates[choice][1]
        self._execute(runtime, self._controlled_pop(runtime))
        return True

    def _controlled_pop(self, runtime: LPRuntime) -> Event:
        """Pop one of the runtime's same-tie queue-head events.

        The heap's canonical order fixes which same-``(pt, lt)`` event
        an LP consumes first; the protocol claims that order is
        irrelevant too.  Surface it as choice point ``event``: collect
        every live queued event tying with the head under
        ``scheduler.tie_key`` and let the scheduler pick.
        """
        sched = self.scheduler
        first = runtime.pop()
        group_key = sched.tie_key(first.time)
        ties = [first]
        while True:
            nxt = runtime.head()
            if nxt is None or sched.tie_key(nxt.time) != group_key:
                break
            ties.append(runtime.pop())
        choice = sched.choose("event", len(ties)) if len(ties) > 1 else 0
        chosen = ties.pop(choice)
        for event in ties:
            runtime.push(event)
        return chosen

    def _safe(self, runtime: LPRuntime, event: Event) -> bool:
        if runtime.mode is SyncMode.OPTIMISTIC:
            return True
        bound = self._input_bound(runtime)
        if self.user_consistent:
            return event.time < bound
        if event.time > bound:
            return False
        # Arbitrary model: execution *at* the bound is normally safe —
        # simultaneous positives commute.  Cancellations do not: they
        # annihilate.  A conservative execution commits irrevocably, so
        # it must additionally stay strictly below the cancellation
        # horizon — the earliest virtual time at which a withheld
        # or in-flight antimessage anywhere in the system could
        # still arrive.  Without this clause a release floor pinned at
        # a withheld cancellation's own timestamp lets the receiver
        # commit the very event that cancellation targets (the
        # orphaned-antimessage deadlock; see docs/protocol.md).
        return event.time < self.cancel_floor

    def _input_bound(self, runtime: LPRuntime) -> VirtualTime:
        """Lower bound on this LP's future arrivals.

        The channel part is the min over input channels of the channel's
        promise (GVT for optimistic/stale senders).  The distance-based
        ``release_floor`` raised by the release-floor sweep is an
        independent valid bound; the tighter (larger) one wins.
        """
        bound = INFINITY
        for src in runtime.preds:
            sender = self.runtime_of(src)
            stored = runtime.channel_clocks.get(src)
            if (sender.mode is SyncMode.CONSERVATIVE and stored is not None
                    and stored[0] == sender.cons_epoch):
                promise = max(stored[1], self.gvt_bound)
            else:
                promise = self.gvt_bound
            if promise < bound:
                bound = promise
        return max(bound, runtime.release_floor)

    def _execute(self, runtime: LPRuntime, event: Event) -> None:
        lp = runtime.lp
        optimistic = runtime.mode is SyncMode.OPTIMISTIC
        if optimistic:
            take = (not runtime.processed
                    or runtime.since_snapshot
                    >= self.checkpoint_interval - 1)
            if take:
                snapshot = lp.snapshot()
                self.clock += self.cost.snapshot
                self.stats.snapshots += 1
                runtime.since_snapshot = 0
                if self.tracer is not None:
                    self.tracer.record("checkpoint", self.index,
                                       lp.lp_id, lp.now, ctx="snapshot")
            else:
                snapshot = None
                runtime.since_snapshot += 1
            entry = _Entry(event, snapshot, lp.now, [])
        if self.tracer is not None:
            self.tracer.record("exec", self.index, lp.lp_id, event.time,
                               kind=int(event.kind),
                               mode=runtime.mode.name,
                               eid=(event.eid.src, event.eid.seq))
        lp.now = event.time
        lp.simulate(event)
        out = lp.drain_outbox()
        self.clock += self.cost.event
        self.stats.events_executed += 1
        runtime.window_executed += 1
        runtime.since_switch += 1
        runtime.blocked_streak = 0
        # withheld is non-empty after a crash recovery injected the dead
        # incarnation's journaled sends for reuse-matching; reuse_pending
        # holds their guaranteed-reuse (conservative) flavour.  Both
        # want the same filter.
        if runtime.withheld or runtime.reuse_pending:
            to_route, sent_record = self._match_withheld(runtime, out)
        else:
            to_route = sent_record = out
        if optimistic:
            entry.sent = sent_record
            runtime.processed.append(entry)
        else:
            self.stats.events_committed += 1
            self.stats.final_time = max(self.stats.final_time, event.time)
            if self.tracer is not None:
                self.tracer.record("commit", self.index, lp.lp_id,
                                   event.time, ctx="conservative",
                                   eid=(event.eid.src, event.eid.seq))
        for message in to_route:
            self.route(message)
        if runtime.withheld or runtime.reuse_pending:
            # Once the LP's clock is strictly beyond a withheld send's
            # send time, no future execution can regenerate it
            # (emissions never predate the event that causes them).
            now = lp.now
            self._cancel_withheld(runtime, now, "withheld-passed")
            self._cancel_withheld(runtime, now, "reuse-diverged", reuse=True)
        if self.use_lookahead and runtime.mode is SyncMode.CONSERVATIVE:
            self._send_nulls(runtime)
        self._maybe_go_conservative(runtime)
        self._arm(runtime)

    # ------------------------------------------------------------------
    # Withheld sends (crash recovery)
    # ------------------------------------------------------------------
    def withhold(self, runtime: LPRuntime, sent: Event) -> None:
        """Park ``sent`` as a withheld cancellation of ``runtime``.

        Crash recovery feeds the journalled sends of a dead incarnation
        through here.  Every withheld entry is an outstanding
        cancellation: the horizon is lowered at once.
        """
        runtime.withheld.append(sent)
        self.live.add(runtime.lp.lp_id)
        self.touched.add(runtime.lp.lp_id)
        if self.cancel_note is not None:
            self.cancel_note(sent.time)

    def withheld_low(self) -> VirtualTime:
        """Min timestamp over withheld sends: this processor's share of
        the cancellation horizon."""
        low = INFINITY
        runtimes = self.runtimes
        for lp_id in self.live:
            for pending in runtimes[lp_id].withheld:
                if pending.time < low:
                    low = pending.time
        return low

    def _match_withheld(self, runtime: LPRuntime, out: List[Event]):
        """Match regenerated messages against withheld cancellations.

        A re-execution that produces a message identical (destination,
        timestamp, kind, payload) to a withheld one *reuses* it: the
        receiver already has the original, so nothing is sent — and the
        processed-entry records the ORIGINAL event, so a future rollback
        cancels the message the receiver actually holds.
        """
        to_route: List[Event] = []
        sent_record: List[Event] = []
        for message in out:
            match = None
            for pool in (runtime.withheld, runtime.reuse_pending):
                for i, pending in enumerate(pool):
                    if (pending.dst == message.dst
                            and pending.time == message.time
                            and pending.kind == message.kind
                            and pending.payload == message.payload):
                        match = pool.pop(i)
                        break
                if match is not None:
                    break
            if match is not None:
                sent_record.append(match)
                self.stats.withheld_reused += 1
            else:
                to_route.append(message)
                sent_record.append(message)
        return to_route, sent_record

    def _cancel_withheld(self, runtime: LPRuntime, bound: VirtualTime,
                         ctx: str, reuse: bool = False,
                         inclusive: bool = False) -> bool:
        """Route an antimessage for every withheld send of ``runtime``
        that ``bound`` has passed, keep the rest; True if any went out.

        ``reuse`` sweeps the guaranteed-reuse (conservative crash)
        entries instead — defensively: a deterministic replay always
        regenerates and matches them first, and a diverged one gets the
        orphaned original cancelled, not left a phantom.  A bound passes
        a send made strictly below it; an ``inclusive`` one (a full
        stall: no event at or below GVT can be generated again) also one
        made or received *at* it — cancel-plus-resend is observably
        equivalent to reuse, so only that one reuse is lost.
        """
        pool = runtime.reuse_pending if reuse else runtime.withheld
        if not pool:
            return False
        keep: List[Event] = []
        for pending in pool:
            if inclusive:
                passed = pending.send_time <= bound or pending.time <= bound
            else:
                passed = pending.send_time < bound
            if not passed:
                keep.append(pending)
                continue
            self.stats.antimessages += 1
            if self.tracer is not None:
                self.tracer.record("anti", self.index, runtime.lp.lp_id,
                                   pending.time, dst=pending.dst,
                                   eid=(pending.eid.src, pending.eid.seq),
                                   ctx=ctx)
            self.route(pending.antimessage())
        if reuse:
            runtime.reuse_pending = keep
        else:
            runtime.withheld = keep
        return len(keep) < len(pool)

    def flush_withheld_all(self, bound: VirtualTime) -> None:
        """GVT flush of every runtime holding withheld sends, in lp-id
        order (the order fixes antimessage routing and trace records)."""
        runtimes = self.runtimes
        holders = [lp_id for lp_id in self.live
                   if runtimes[lp_id].withheld
                   or runtimes[lp_id].reuse_pending]
        for lp_id in sorted(holders):
            self.flush_withheld(runtimes[lp_id], bound)

    def flush_withheld(self, runtime: LPRuntime, bound: VirtualTime) -> None:
        """Cancel withheld messages below ``bound`` (GVT flush).

        Once GVT passes a withheld message's send time, the LP can never
        execute at or below it again, so regeneration is impossible.
        """
        self._cancel_withheld(runtime, bound, "reuse-flush", reuse=True)
        self._cancel_withheld(runtime, bound, "withheld-flush")

    def flush_withheld_stalled(self, gvt: VirtualTime) -> bool:
        """Cancel withheld messages up to and *including* ``gvt`` (an
        inclusive bound, see :meth:`_cancel_withheld`), in lp-id order;
        True if any went out.  The strict bound of :meth:`flush_withheld`
        only keeps a stalled GVT pinned at a withheld message's own
        timestamp.
        """
        flushed = False
        for lp_id in sorted(self.live):
            if self._cancel_withheld(self.runtimes[lp_id], gvt, "gvt-flush",
                                     inclusive=True):
                flushed = True
        return flushed

    # ------------------------------------------------------------------
    # Null messages (conservative with lookahead)
    # ------------------------------------------------------------------
    def _send_nulls(self, runtime: LPRuntime) -> None:
        # Two floors bound this LP's future outputs:
        #  * events still arriving on input channels produce outputs at
        #    least one LP-lookahead later than the channel bound;
        #  * events already queued (including self-scheduled timeouts and
        #    run events, which emit at their own timestamp) bound outputs
        #    with NO lookahead added — a process resuming on a timeout
        #    assigns signals at exactly the timeout's virtual time.
        bound = self._input_bound(runtime)
        queue_floor = runtime.queue_min_time()
        # Events already emitted but not yet delivered (sitting in the
        # local FIFO) also bound this LP's future outputs: a process that
        # just scheduled its own run/timeout will emit at that event's
        # exact virtual time, possibly below bound + lookahead.
        lp_id = runtime.lp.lp_id
        for pending in self.local_fifo:
            if pending.dst == lp_id and pending.sign > 0 \
                    and pending.time < queue_floor:
                queue_floor = pending.time
        if bound == INFINITY and queue_floor == INFINITY:
            return
        for dst in runtime.succs:
            lookahead = self.lookahead_of(runtime.lp.lp_id, dst)
            if lookahead is None:
                continue
            dpt, dlt = lookahead
            if bound == INFINITY:
                shifted = INFINITY
            elif dpt > 0:
                shifted = VirtualTime(bound.pt + dpt, 0)
            else:
                shifted = VirtualTime(bound.pt, bound.lt + dlt)
            promise = min(shifted, queue_floor)
            last = runtime.last_null_promise.get(dst)
            if last is not None and promise <= last:
                continue
            runtime.last_null_promise[dst] = promise
            self.stats.null_messages += 1
            self.clock += self.cost.null_msg
            null = Event(time=promise, kind=EventKind.NULL, dst=dst,
                         src=runtime.lp.lp_id, send_time=runtime.lp.now)
            self.route(null)

    # ------------------------------------------------------------------
    # Dynamic adaptation
    # ------------------------------------------------------------------
    def _maybe_go_conservative(self, runtime: LPRuntime) -> None:
        if (not runtime.dynamic
                or runtime.mode is not SyncMode.OPTIMISTIC
                or runtime.since_switch < self.adapt.dwell
                or runtime.window_executed < self.adapt.window):
            return
        if runtime.rollback_ratio() <= self.adapt.rollback_ratio_high:
            runtime.reset_window()
            return
        # Roll back to the provably-safe horizon, then run conservatively.
        bound = max(self._input_bound(runtime), self.gvt_bound)
        index = self._first_safe_cut(runtime, bound)
        self._rollback(runtime, index)
        self._commit_log(runtime, ctx="switch")
        runtime.mode = SyncMode.CONSERVATIVE
        runtime.cons_epoch += 1
        runtime.since_switch = 0
        runtime.reset_window()
        self.clock += self.cost.mode_switch
        self.stats.mode_switches += 1
        self._arm(runtime)

    def _maybe_go_optimistic(self, runtime: LPRuntime) -> None:
        # No dwell gate here: the dwell counts *executions*, and a
        # conservative LP that blocks forever never executes — it must
        # still be able to escape.  Flapping is bounded by the dwell on
        # the opposite (OPT -> CONS) switch.
        if (not runtime.dynamic
                or runtime.mode is not SyncMode.CONSERVATIVE
                or not runtime.lp.checkpointable
                or runtime.blocked_streak < self.adapt.blocked_polls_high):
            return
        runtime.mode = SyncMode.OPTIMISTIC
        runtime.since_switch = 0
        runtime.reset_window()
        self.clock += self.cost.mode_switch
        self.stats.mode_switches += 1
        self._arm(runtime)

    def _first_safe_cut(self, runtime: LPRuntime,
                        bound: VirtualTime) -> int:
        """First log entry that may NOT be committed at a mode switch.

        Strictly below the bound only: an antimessage may still arrive
        *at* the bound (GVT floors at a withheld or in-flight
        cancellation's own timestamp, inclusively), and a committed
        entry can never be cancelled.  Entries at exactly the bound are
        rolled back and re-executed instead.
        """
        entries = runtime.processed
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid].event.time < bound:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _commit_log(self, runtime: LPRuntime, ctx: str = "final") -> None:
        """Finalize all remaining processed entries (now irrevocable)."""
        for entry in runtime.processed:
            self.stats.events_committed += 1
            self.stats.final_time = max(self.stats.final_time,
                                        entry.event.time)
            if self.tracer is not None:
                self.tracer.record("commit", self.index,
                                   runtime.lp.lp_id, entry.event.time,
                                   ctx=ctx,
                                   eid=(entry.event.eid.src,
                                        entry.event.eid.seq))
        runtime.processed.clear()

    def commit_remaining(self) -> None:
        """End of run: no event can arrive anymore, so everything still
        speculative is final.  Leaves ``live`` holding only runtimes
        with events parked beyond the simulation horizon."""
        runtimes = self.runtimes
        for lp_id in sorted(self.live):
            runtime = runtimes[lp_id]
            self._commit_log(runtime)
            if runtime.idle():
                self.live.discard(lp_id)

    # ------------------------------------------------------------------
    # GVT support (driven by the machine)
    # ------------------------------------------------------------------
    def commit_gvt(self, gvt: VirtualTime) -> None:
        """Apply a GVT commit: raise the safety bound, flush the
        withheld sends it passed, commit and drop the log below it, and
        re-arm blocked LPs it may have released.  Both machines commit
        through here — at each global round, at each token commit."""
        self.gvt_bound = gvt
        self.stats.gvt_rounds += 1
        self.flush_withheld_all(gvt)
        self.drain_local()
        self.fossil_collect(gvt)
        self.rearm_blocked()

    def local_min_time(self) -> VirtualTime:
        """min timestamp over queued events and parked negatives."""
        low = INFINITY
        runtimes = self.runtimes
        for lp_id in self.live:
            runtime = runtimes[lp_id]
            if runtime.head() is not None:
                t = runtime.queue[0][0][0]
                if t < low:
                    low = t
            for negative in runtime.negatives.values():
                if negative.time < low:
                    low = negative.time
            # A withheld cancellation may still become an antimessage
            # at its own timestamp: GVT must not pass it.
            for pending in runtime.withheld:
                if pending.time < low:
                    low = pending.time
        for _at, _seq, event in self.inbox:
            if event.time < low:
                low = event.time
        return low

    def fossil_collect(self, gvt: VirtualTime) -> None:
        """Commit and drop log entries strictly below GVT.

        One snapshot at or below GVT must survive as the restore anchor,
        which is automatic here: entries at or after GVT keep their
        ``pre_snapshot``, and an LP can never be rolled back below GVT.
        """
        self.clock += self.cost.fossil
        runtimes = self.runtimes
        live = self.live
        # lp-id order: commit records must not depend on set order.
        for lp_id in sorted(live):
            runtime = runtimes[lp_id]
            entries = runtime.processed
            cut = 0
            while cut < len(entries) and entries[cut].event.time < gvt:
                cut += 1
            # Interval checkpointing: the first retained entry must be a
            # coast-forward anchor (have a snapshot), otherwise a future
            # rollback into the retained region would have no base state.
            # (Dropping the whole log is fine: the next execution takes
            # a fresh snapshot on an empty log.)
            while 0 < cut < len(entries) and \
                    entries[cut].pre_snapshot is None:
                cut -= 1
            if cut:
                for entry in entries[:cut]:
                    self.stats.events_committed += 1
                    self.stats.final_time = max(self.stats.final_time,
                                                entry.event.time)
                    if self.tracer is not None:
                        self.tracer.record(
                            "commit", self.index, runtime.lp.lp_id,
                            entry.event.time, ctx="fossil",
                            gvt=(gvt[0], gvt[1]),
                            eid=(entry.event.eid.src,
                                 entry.event.eid.seq))
                del entries[:cut]
                self.stats.fossils_collected += cut
            if not entries and runtime.idle():
                live.discard(lp_id)


# ----------------------------------------------------------------------
# Building an engine: what every machine does before its first act()
# ----------------------------------------------------------------------
def resolve_model(design_or_model):
    """Accept a Model, a Design, or a DesignArtifact; return a Model.

    Every backend entry point funnels through this, so callers can hand
    any representation of an elaborated design to any machine:

    * a :class:`~repro.vhdl.artifact.DesignArtifact` is instantiated
      into a *fresh* runtime (``instantiate_model()``) — artifacts are
      immutable and reusable, so this is the re-runnable path;
    * a :class:`~repro.vhdl.design.Design` is elaborated (single-use:
      a second run of the same Design raises — snapshot to an artifact
      to re-run);
    * a :class:`~repro.core.model.Model` passes through unchanged.

    Duck-typed rather than isinstance-dispatched so the core parallel
    layer keeps no import dependency on the VHDL front-end.
    """
    instantiate = getattr(design_or_model, "instantiate_model", None)
    if instantiate is not None:
        return instantiate()
    elaborate = getattr(design_or_model, "elaborate", None)
    if elaborate is not None and hasattr(design_or_model, "signals"):
        return elaborate()
    return design_or_model


def stamp_epoch(runtimes: Dict[int, LPRuntime], event: Event) -> Event:
    """Stamp a send with the sender's conservative-promise epoch.

    Only a *positive* message leaving a (currently) conservative LP is a
    promise; speculative sends and antimessages carry no epoch.  The
    stamp is taken at send time — the one moment the sender's mode is
    authoritative for this message.  Every machine's route does it.
    """
    src_rt = runtimes.get(event.src)
    if (event.sign > 0 and src_rt is not None
            and src_rt.mode is SyncMode.CONSERVATIVE):
        return event.stamped(src_rt.cons_epoch)
    return event


def proc_has_work(proc: Processor, until: Optional[int]) -> bool:
    """Does this processor still owe protocol work?

    True when it holds undelivered local/remote messages, a withheld
    send (which must eventually resolve to a reuse or an antimessage),
    or any queued event within the simulation horizon.
    Blocked conservative heads count: they are waiting for a safety
    bound, not finished.  Both machines evaluate it at their global
    synchronization points (deadlock check / token visit).
    """
    if proc.local_fifo or proc.inbox:
        return True
    for lp_id in proc.live:
        runtime = proc.runtimes[lp_id]
        if runtime.withheld:
            return True  # withheld cancellations must resolve
        head = runtime.head()
        if head is None:
            continue
        if until is None or head.time.pt <= until:
            return True
    return False


@dataclass
class Engine:
    """A built engine: the model's LPs placed on ``procs``, each with
    its runtime, init events seeded.  The machine that drives it
    installs every processor's ``route`` and ``cancel_note`` — its
    transport and its cancellation horizon — and nothing else."""

    model: Model
    procs: List[Processor]
    runtimes: Dict[int, LPRuntime]
    placement: Partition


def build_engine(model, processors: int, protocol: str,
                 partition: Union[str, Partition, Callable] = "round_robin",
                 cost: CostModel = SHARED_MEMORY,
                 until: Optional[int] = None,
                 user_consistent: bool = False,
                 lookahead: Optional[str] = None,
                 adapt: Optional[AdaptPolicy] = None,
                 checkpoint_interval: int = 1,
                 tracer=None, scheduler=None) -> Engine:
    """Resolve and validate ``model``, place its LPs on ``processors``
    processors, build every runtime in its protocol's mode and seed the
    init events.  A function of its arguments alone: the modelled
    machine and every ring worker (forked, spawned or remote) that
    builds from the same ones gets the same engine."""
    model = resolve_model(model)
    model.validate()
    if processors < 1:
        raise ValueError("need at least one processor")
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; "
                         f"choose from {PROTOCOLS}")
    if lookahead not in (None, "vhdl"):
        raise ValueError(f"unknown lookahead policy {lookahead!r}; "
                         f"choose None or 'vhdl'")
    if isinstance(partition, str):
        placement = PARTITIONERS[partition](model, processors)
    elif callable(partition):
        placement = partition(model, processors)
    else:
        placement = dict(partition)
    procs = [Processor(i, cost, user_consistent=user_consistent,
                       use_lookahead=lookahead is not None, adapt=adapt,
                       checkpoint_interval=checkpoint_interval)
             for i in range(processors)]
    for proc in procs:
        proc.tracer = tracer
        proc.scheduler = scheduler
    runtimes: Dict[int, LPRuntime] = {}
    for lp in model.lps:
        if protocol != "mixed":
            mode = SyncMode(protocol)
        else:
            # The model's static per-LP assignment (the paper's
            # heuristic: synchronous components conservative,
            # asynchronous ones optimistic).
            mode = model.sync_modes[lp.lp_id]
            if mode is SyncMode.DYNAMIC:
                mode = SyncMode.OPTIMISTIC
        runtime = LPRuntime(lp, mode, model.predecessors(lp.lp_id),
                            model.successors(lp.lp_id))
        runtimes[lp.lp_id] = runtime
        procs[placement[lp.lp_id]].adopt(runtime)
        if tracer is not None:
            tracer.register_lp(lp)
            lp.tracer = tracer

    def lookahead_of(src: int, dst: int) -> Optional[Tuple[int, int]]:
        # Every VHDL kernel channel advances the logical clock by at
        # least one phase from cause to effect.
        return (0, 1) if (src, dst) in model.channels else None

    for proc in procs:
        proc.runtime_of = runtimes.__getitem__
        proc.until = until
        if lookahead is not None:
            proc.lookahead_of = lookahead_of
    for lp in model.lps:
        runtime = runtimes[lp.lp_id]
        for event in lp.init_events():
            if runtime.mode is SyncMode.CONSERVATIVE:
                event = event.stamped(runtime.cons_epoch)
            procs[placement[event.dst]].seed(event)
    return Engine(model, procs, runtimes, placement)
