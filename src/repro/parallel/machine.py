"""The modelled multiprocessor: deterministic parallel-machine simulation.

The machine executes a :class:`~repro.core.model.Model` over ``P``
modelled processors.  It is itself a discrete-event simulation in *model
time* (cost units): at every step the processor that can act earliest
does one unit of protocol work, and inter-processor messages arrive after
a latency.  Determinism comes from the strict (time, index) scheduling
order, so the same run always produces the same makespan — and the same
committed simulation results as the sequential engine, which the test
suite checks exhaustively.

Global services implemented here:

* **GVT** — computed exactly (the machine sees all queues and in-flight
  messages).  Periodic rounds advance the commit horizon used both for
  fossil collection and as the safety bound that lets conservative LPs
  accept events from optimistic senders.
* **Deadlock recovery** — the paper's protocol is lookahead-free: when no
  processor can act but unprocessed events remain, a global
  synchronization (modelled as a barrier costing ``gvt_round`` on every
  processor) computes the minimum pending timestamp; events at that
  minimum become safe and the simulation resumes.  Under the
  user-consistent comparison model without lookahead this degenerates to
  (nearly) one global round per simultaneous set — the overhead the
  paper's Fig. 4 quantifies.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.event import Event
from ..core.model import Model
from ..core.stats import RunStats
from ..core.vtime import INFINITY, MINUS_INFINITY, VirtualTime
from ..fabric.plan import FaultPlan
from ..fabric.transport import PerfectFabric, ReliableFabric
from ..resilience import (DEFAULT_MODEL_STEPS, StepWatchdog, build_report,
                          resolve_watchdog, surface)
from .cost import SHARED_MEMORY, CostModel
from .engine import (PROTOCOLS, AdaptPolicy, LPRuntime, Processor,
                     ProtocolError, build_engine, proc_has_work,
                     stamp_epoch)
from .floors import ReleaseFloors
from .partition import Partition, cut_channels


@dataclass
class ParallelOutcome:
    """Result of one modelled parallel run."""

    stats: RunStats
    #: Model-time makespan (max processor clock at completion).
    makespan: float
    #: Final GVT (== furthest committed virtual time).
    gvt: VirtualTime
    processors: int
    #: Final clock of each processor (load-balance observation).
    clocks: List[float]
    #: Channels that crossed processor boundaries.
    remote_channels: int


class ParallelMachine:
    """Co-simulation of ``P`` processors running the mixed protocol."""

    def __init__(self, model: Model, processors: int,
                 protocol: str = "dynamic",
                 cost: CostModel = SHARED_MEMORY,
                 partition: Union[str, Partition, Callable] = "round_robin",
                 user_consistent: bool = False,
                 lookahead: Optional[str] = None,
                 adapt: Optional[AdaptPolicy] = None,
                 checkpoint_interval: int = 1,
                 until: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 recovery: Optional[bool] = None,
                 watchdog: Optional[int] = None,
                 tracer=None, scheduler=None) -> None:
        engine = build_engine(
            model, processors, protocol, partition, cost=cost, until=until,
            user_consistent=user_consistent, lookahead=lookahead,
            adapt=adapt, checkpoint_interval=checkpoint_interval,
            tracer=tracer, scheduler=scheduler)
        self.model = engine.model
        self.procs: List[Processor] = engine.procs
        self._runtimes: Dict[int, LPRuntime] = engine.runtimes
        self.placement = engine.placement
        self.cost = cost
        self.until = until
        self.gvt = MINUS_INFINITY
        #: Conformance hooks (repro.harness): both default to None and
        #: are propagated to every processor, LP and the fabric.
        self.tracer = tracer
        self.scheduler = scheduler
        # The hooks reach this machine weakly: a processor that held it
        # would make a cycle, and a dropped machine, run or not, would
        # wait for the collector instead of dying by reference count.
        ref = weakref.ref(self)

        def cancel_note(time: VirtualTime) -> None:
            ref()._note_cancellation(time)

        for proc in self.procs:
            proc.route = self._make_route(ref, proc.index)
            proc.cancel_note = cancel_note
        # Delivery fabric: perfect FIFO links by default; a fault plan
        # switches to the reliable (ack/retransmit/dedup) layer so the
        # protocol still commits sequential-identical results.
        if fault_plan is not None and (fault_plan.faulty or recovery):
            self.fabric = ReliableFabric(fault_plan, recovery=recovery)
        else:
            self.fabric = PerfectFabric()
        #: Crash schedule (executed-step, processor) pairs, soonest first.
        self._crash_schedule = sorted(
            fault_plan.crashes) if fault_plan is not None else []
        # GVT cadence: every `gvt_interval` executed events.  A second,
        # blocking-driven trigger keeps conservative LPs fed in mixed
        # populations: when blocked polls accumulate faster than
        # events, the commit horizon is what they are starving for.
        self.gvt_interval = max(64, 16 * processors)
        self.blocked_poll_trigger = 8 * processors
        # The blocking-driven trigger is rate-limited: in an all-
        # conservative population every round re-arms hundreds of LPs
        # that immediately re-block, and an unthrottled trigger then
        # fires a round per event (a round storm that erases all
        # parallelism).
        self.blocked_gvt_min_interval = max(24, 3 * processors)
        self._since_gvt = 0
        self._blocked_at_gvt = 0
        self._peak_speculative = 0
        # Liveness: step-count watchdog (wall clock is meaningless on the
        # modelled machine) probed at GVT rounds — a healthy machine runs
        # rounds every few dozen events, so the marker is examined often,
        # while the per-step loop stays free of liveness bookkeeping.
        self.watchdog_bound = int(
            resolve_watchdog(watchdog, DEFAULT_MODEL_STEPS))
        self._watchdog = StepWatchdog(self.watchdog_bound)
        #: Monotone main-loop iteration counter — the watchdog's
        #: *position*.  Ticking on productive executions only would
        #: starve the watchdog exactly when it is needed most: a
        #: machine spinning through barrier GVT rounds or idle act()
        #: iterations executes nothing, so a step-denominated probe
        #: could never observe enough elapsed distance to trip.  Work
        #: units advance on every iteration, productive or not.
        self._work = 0
        #: Progress marker of the previous barrier GVT round — see run().
        self._barrier_marker: Optional[Tuple] = None
        #: Machine-level liveness counters (vt-surface spread samples,
        #: watchdog probes) merged into the outcome stats at _finish.
        self._liveness = RunStats()
        if tracer is not None:
            self.fabric.tracer = tracer
        # The release-floor sweep (``parallel.floors``) over the whole
        # graph.  Only the safety test of a blockable runtime reads a
        # floor; without such a reader there is no sweep.
        readers: List[Optional[Tuple[LPRuntime, Processor]]] = [
            (runtime, self.procs[self.placement[lp_id]])
            if runtime.blockable else None
            for lp_id, runtime in self._runtimes.items()]
        self._floors = (ReleaseFloors.whole(self.model, readers)
                        if any(readers) else None)
        #: The last walk of ``compute_gvt`` (potentials, arrivals), for
        #: the sweep of the same round.
        self._noted: Optional[Tuple[list, list]] = None
        self.fabric.bind(self)

    def install_fabric(self, fabric) -> None:
        """Swap the delivery fabric (must happen before :meth:`run`).

        Used by :func:`repro.fabric.install_jitter` and tests to attach a
        pre-built fabric to a machine constructed with default arguments.
        """
        if self.tracer is not None:
            fabric.tracer = self.tracer
        self.fabric = fabric
        fabric.bind(self)

    @staticmethod
    def _make_route(ref: "weakref.ref[ParallelMachine]",
                    index: int) -> Callable[[Event], None]:
        def route(event: Event) -> None:
            machine = ref()
            # Stamp the conservative-promise epoch at send time (every
            # machine's obligation; see repro.parallel.engine).
            event = stamp_epoch(machine._runtimes, event)
            sender = machine.procs[index]
            target = machine.placement[event.dst]
            if target == index:
                sender.clock += machine.cost.local_msg
                sender.local_fifo.append(event)
            else:
                machine.fabric.send(sender, machine.procs[target], event)
        return route

    # ------------------------------------------------------------------
    # Global services
    # ------------------------------------------------------------------
    def compute_gvt(self) -> VirtualTime:
        """Exact GVT: min over all queued and in-flight event times.

        The walk notes them per LP — the earliest queued at or under way
        to it (its *potential*) and the earliest under way to it — and
        leaves both for the release-floor sweep of the same round; it
        also samples the peak of speculatively processed events.
        """
        potential = [INFINITY] * len(self._runtimes)
        arriving = list(potential)
        speculative = 0

        def arrive(lp_id: int, time: VirtualTime) -> None:
            if time < arriving[lp_id]:
                arriving[lp_id] = time
                if time < potential[lp_id]:
                    potential[lp_id] = time

        for proc in self.procs:
            runtimes = proc.runtimes
            for lp_id in proc.live:
                runtime = runtimes[lp_id]
                speculative += len(runtime.processed)
                if runtime.cancelled:
                    runtime.head()  # drops annihilated entries
                if runtime.queue:
                    time = runtime.queue[0][0][0]
                    if time < potential[lp_id]:
                        potential[lp_id] = time
                if runtime.negatives:
                    # A parked negative implies its positive twin is
                    # still under way.
                    for negative in runtime.negatives.values():
                        arrive(lp_id, negative.time)
                for pending in runtime.withheld:
                    # A withheld cancellation may yet arrive at its
                    # destination as an antimessage.
                    arrive(pending.dst, pending.time)
            for _at, _seq, event in proc.inbox:
                arrive(event.dst, event.time)
            for event in proc.local_fifo:
                arrive(event.dst, event.time)
        # Messages the fabric still owes (unacked, possibly dropped, or
        # parked in reorder buffers) will arrive eventually.
        for event in self.fabric.pending_events():
            arrive(event.dst, event.time)
        self._noted = (potential, arriving)
        if speculative > self._peak_speculative:
            self._peak_speculative = speculative
        return min(potential, default=INFINITY)

    def _gvt_round(self, barrier: bool) -> None:
        """Advance the commit horizon; optionally synchronize clocks.

        Periodic rounds are asynchronous (Mattern-style, each processor
        pays the token cost); deadlock recovery is a true barrier (every
        processor waits for the slowest before the minimum is known).
        """
        if barrier:
            fence = max(proc.clock for proc in self.procs)
            for proc in self.procs:
                proc.clock = fence + self.cost.gvt_round
            # A stalled machine must not deadlock on a dropped message:
            # force every pending retransmission timer to fire now.
            self.fabric.fire_all()
        else:
            for proc in self.procs:
                proc.clock += self.cost.gvt_round
        gvt = self.compute_gvt()
        if gvt > self.gvt:
            self.gvt = gvt
        if self.tracer is not None:
            g = self.gvt
            self.tracer.record(
                "gvt", time=g,
                gvt=None if g in (INFINITY, MINUS_INFINITY)
                else (g[0], g[1]),
                barrier=barrier)
        self._refresh_release_floors()
        for proc in self.procs:
            proc.commit_gvt(self.gvt)
        self.fabric.on_gvt_round(self)
        # Cancellation horizon: exact recompute now that flushes/drains
        # settled — the only point where the floor may *rise*.  (It is
        # lowered eagerly through cancel_note between rounds.)
        floor = self._cancellation_floor()
        for proc in self.procs:
            proc.cancel_floor = floor
            proc.rearm_blocked()
        self._sample_spread()
        self._since_gvt = 0
        self._blocked_at_gvt = self._blocked_polls()
        if self._watchdog.tick(self._progress_marker(), self._work):
            self._stall("no GVT advance or commit in "
                        f"{self._watchdog.idle} steps "
                        f"(bound {self.watchdog_bound})")

    def _blocked_polls(self) -> int:
        return sum(proc.stats.blocked_polls for proc in self.procs)

    # ------------------------------------------------------------------
    # Liveness (repro.resilience)
    # ------------------------------------------------------------------
    def _note_cancellation(self, time: VirtualTime) -> None:
        """Eagerly lower every processor's cancellation horizon.

        Invoked by processors (``cancel_note``) the moment a cancellation
        comes into existence — withheld by crash recovery or routed as an
        antimessage.  Lowering is always sound; the horizon is
        raised (recomputed exactly) only at GVT rounds.
        """
        for proc in self.procs:
            if time < proc.cancel_floor:
                proc.cancel_floor = time

    def _cancellation_floor(self) -> VirtualTime:
        """Min virtual time over every outstanding cancellation.

        Counts withheld entries and in-flight antimessages (local
        FIFOs, processor inboxes, fabric backlog).  Negatives parked in
        ``runtime.negatives`` are excluded: their positive has not
        arrived, so the event they target cannot be executed —
        ``_deliver_positive`` annihilates against the parked negative
        before the positive can ever be queued.
        """
        low = INFINITY
        for proc in self.procs:
            low = min(low, proc.withheld_low())
            for event in proc.local_fifo:
                if event.sign < 0 and event.time < low:
                    low = event.time
            for _at, _seq, event in proc.inbox:
                if event.sign < 0 and event.time < low:
                    low = event.time
        for event in self.fabric.pending_events():
            if event.sign < 0 and event.time < low:
                low = event.time
        return low

    def _sample_spread(self) -> None:
        """Record the Korniss virtual-time surface width at this round."""
        if not self._watchdog.enabled:
            # watchdog=0 turns the whole liveness layer off, sampling
            # included — the uninstrumented baseline the overhead
            # benchmark measures against.
            return
        lo, hi, width = surface(lp.now for lp in self.model.lps)
        if lo is None:
            return
        self._liveness.vt_spread_samples += 1
        self._liveness.vt_spread_width_sum += width
        if width > self._liveness.vt_spread_width_max:
            self._liveness.vt_spread_width_max = width

    def _progress_marker(self) -> Tuple:
        return (self.gvt,
                sum(proc.stats.events_committed for proc in self.procs))

    def _partial_stats(self) -> RunStats:
        stats = RunStats()
        for proc in self.procs:
            stats.merge(proc.stats)
        stats.merge(self.fabric.stats)
        self._liveness.watchdog_probes = self._watchdog.probes
        stats.merge(self._liveness)
        stats.peak_speculative = self._peak_speculative
        return stats

    def _stall(self, reason: str) -> None:
        """Diagnose an unrecoverable stall: raise with full forensics."""
        self._liveness.watchdog_stalls += 1
        report = build_report(
            "model", reason, self.procs, gvt=self.gvt,
            bound=self.watchdog_bound,
            in_flight={
                "fabric_pending": sum(1 for _ in
                                      self.fabric.pending_events()),
                "inbox": sum(len(proc.inbox) for proc in self.procs),
                "local_fifo": sum(len(proc.local_fifo)
                                  for proc in self.procs),
            })
        error = ProtocolError(f"stall diagnosed: {reason}")
        error.stall_report = report
        error.partial_stats = self._partial_stats()
        raise error

    # The sweep's readers and carried state, as the machine held them
    # before the sweep moved: tests/test_release_floors.py checks every
    # round through these two views.
    @property
    def _readers(self) -> list:
        """The runtimes the sweep writes floors into (empty: no sweep)."""
        return [] if self._floors is None else self._floors.readers

    @property
    def _carried(self) -> Optional[Tuple[list, ...]]:
        """What the sweep carries between rounds (``None``: full)."""
        return None if self._floors is None else self._floors.carried

    def _refresh_release_floors(self) -> None:
        """Distance-based release bounds (bounded-lag refinement).

        GVT alone releases only events *at* the global minimum, which for
        the VHDL kernel means one delta phase per global round — exactly
        the serialization the paper's conservative configuration avoids.
        The sweep (:class:`~.floors.ReleaseFloors`) takes the
        potentials and arrivals ``compute_gvt`` noted this round — a
        fresh walk if none was — and writes the floors of blockable
        runtimes; under the ``optimistic`` protocol there is nothing to
        do.  A restore drops the carried state (:meth:`drop_floors`).
        """
        if self._floors is None:
            return
        noted, self._noted = self._noted, None
        if noted is None:
            self.compute_gvt()
            noted, self._noted = self._noted, None
        self._floors.sweep(*noted)

    def drop_floors(self) -> None:
        """Forget what the release-floor sweep carries: the next round is
        a full one.  For every restore of a processor image, whose
        floors may lie below what the sweep last wrote."""
        if self._floors is not None:
            self._floors.drop()

    def _pending_work(self) -> bool:
        """Any unprocessed event within the simulation horizon?"""
        if self.fabric.has_pending():
            return True  # unacked/parked copies must still be delivered
        return any(proc_has_work(proc, self.until) for proc in self.procs)

    def _force_minimum(self) -> bool:
        """User-consistent dispensation: execute the single globally
        minimal event despite the strict safety rule.

        Without lookahead the user-consistent conservative model cannot
        prove any simultaneous set complete; real systems serialize on a
        global synchronization per step.  Returns True if an event ran.
        """
        best: Optional[Tuple[tuple, Processor, LPRuntime]] = None
        for proc in self.procs:
            for lp_id in sorted(proc.live):  # key ties: lowest lp first
                runtime = proc.runtimes[lp_id]
                head = runtime.head()
                if head is None:
                    continue
                if self.until is not None and head.time.pt > self.until:
                    continue
                key = runtime.queue[0][0]
                if best is None or key < best[0]:
                    best = (key, proc, runtime)
        if best is None:
            return False
        _key, proc, runtime = best
        proc._execute(runtime, runtime.pop())
        proc.drain_local()
        return True

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_steps: Optional[int] = None) -> ParallelOutcome:
        steps = 0
        self.fabric.on_run_start(self)
        crashes = list(self._crash_schedule)
        while True:
            self._work += 1
            if max_steps is not None and steps >= max_steps:
                self._stall(f"machine exceeded {max_steps} steps "
                            f"(livelock?)")
            while crashes and crashes[0][0] <= steps:
                _at, victim = crashes.pop(0)
                self.kill(victim)
            proc = self._next_processor()
            if proc is None:
                if not self._pending_work():
                    break
                before = self.gvt
                self._gvt_round(barrier=True)
                for p in self.procs:
                    p.stats.deadlock_recoveries += 1
                # The round's rearm_blocked often makes blocked
                # conservative runtimes *look* ready again, so checking
                # _next_processor() alone never reaches the recovery
                # ladder below: the machine spins barrier-round <->
                # failed-poll forever (mixed protocol with a withheld
                # cancellation pinning the safe bound — found by
                # repro.campaign).  A barrier interval that executed no
                # event with GVT frozen proves the readiness is a
                # mirage: every rearmed runtime was re-polled and
                # blocked again before _next_processor() could return
                # None, so the ladder must engage regardless.
                marker = (self.gvt, sum(p.stats.events_executed
                                        for p in self.procs))
                stuck = marker == self._barrier_marker
                self._barrier_marker = marker
                if stuck or self._next_processor() is None:
                    # A dropped message can be the whole stall: its only
                    # copy lives in a sender's retransmit buffer.  Each
                    # barrier round force-fires the timers, and the
                    # per-message drop budget bounds how many rounds the
                    # fault plan can keep losing the retransmissions, so
                    # looping here terminates.
                    if self.fabric.has_pending():
                        continue
                    # GVT alone did not unblock anything.  A withheld
                    # cancellation whose send time equals GVT can
                    # pin it: with the whole machine stalled no event at
                    # or below GVT can ever be generated again, so an
                    # inclusive flush is sound, and its antimessages
                    # restart the machine.
                    if self._flush_withheld_at_gvt():
                        continue
                    # Otherwise: the user-consistent strictness or a
                    # genuine stall.
                    if not self._force_minimum():
                        self._stall(
                            "deadlock recovery failed to make progress "
                            f"(gvt {before} -> {self.gvt})")
                    # The forced execution is a real step: a machine
                    # that only ever advances through this dispensation
                    # (one event per barrier round) must still be
                    # bounded by max_steps, or a slow livelock cycle
                    # evades both guards (found by repro.campaign).
                    steps += 1
                continue
            if proc.act():
                self.fabric.poll(proc)
                self._since_gvt += 1
                steps += 1
                due = self._since_gvt >= self.gvt_interval
                blocked_due = (
                    self._since_gvt >= self.blocked_gvt_min_interval
                    and self._blocked_polls() - self._blocked_at_gvt
                    >= self.blocked_poll_trigger)
                if due or blocked_due:
                    self._gvt_round(barrier=False)
        return self._finish()

    def _flush_withheld_at_gvt(self) -> bool:
        """Cancel withheld messages up to and including GVT.

        Only called when the machine is fully stalled (see run()); the
        inclusive bound is what makes progress when a withheld message's
        own timestamp IS the GVT.
        """
        flushed = False
        for proc in self.procs:
            if proc.flush_withheld_stalled(self.gvt):
                flushed = True
            proc.drain_local()
        return flushed

    def kill(self, index: int) -> None:
        """Crash processor ``index`` and recover it from its latest
        durable checkpoint.

        Requires a fabric with crash-recovery enabled (a
        :class:`~repro.fabric.transport.ReliableFabric` built with
        ``recovery=True`` or a fault plan carrying a crash schedule).
        The crashed processor loses all volatile state; peers replay
        their per-link journals to rebuild its in-flight input, and its
        own journaled output is reconciled through the withheld-send
        path so surviving receivers keep consistent queues.
        """
        self.fabric.crash(index)

    def _next_processor(self) -> Optional[Processor]:
        best = None
        best_time = float("inf")
        for proc in self.procs:
            t = proc.has_work_at()
            if t < best_time:
                best = proc
                best_time = t
        if best is None or self.scheduler is None:
            return best
        # Controlled scheduling: processors tied at the same model time
        # form choice point ``proc`` (canonical order = processor index).
        tied = [proc for proc in self.procs
                if proc.has_work_at() == best_time]
        if len(tied) <= 1:
            return best
        return tied[self.scheduler.choose("proc", len(tied))]

    def _finish(self) -> ParallelOutcome:
        # Commit everything that remains speculative: the run is over, no
        # event can arrive anymore, so all processed work is final.
        final_gvt = self.compute_gvt()  # INFINITY when fully drained
        for proc in self.procs:
            proc.commit_remaining()
        stats = self._partial_stats()
        return ParallelOutcome(
            stats=stats,
            makespan=max(proc.clock for proc in self.procs),
            gvt=final_gvt,
            processors=len(self.procs),
            clocks=[proc.clock for proc in self.procs],
            remote_channels=cut_channels(self.model, self.placement),
        )


def run_parallel(model: Model, processors: int,
                 max_steps: Optional[int] = None,
                 **config) -> ParallelOutcome:
    """``ParallelMachine(model, processors, **config).run(max_steps)``."""
    return ParallelMachine(model, processors, **config).run(max_steps)
