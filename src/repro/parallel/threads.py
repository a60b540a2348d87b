"""Real-thread backend: the distributed kernel on actual OS threads.

The modelled machine (machine.py) is how the benchmarks measure
*speedup* — CPython's GIL makes wall-clock thread speedup unobtainable,
as documented in DESIGN.md.  This backend exists for a different
purpose: to demonstrate that the protocol really is a distributed
algorithm — LPs partitioned over concurrently running workers that
communicate only through message queues, with a stop-the-world
coordinator standing in for the paper's global synchronization — and
that it still commits exactly the sequential results.

Scope: the static protocols (optimistic / conservative / mixed).  The
dynamic mode is excluded because a receiver may sample a sender's mode
while it is mid-switch; the modelled machine serializes those reads,
real threads would need extra locking for no demonstrative gain.

Locking discipline: each worker owns its processor's state and touches
it under the processor's big lock; cross-processor routing only ever
touches the *target's inbox lock*, a leaf lock that is never held while
acquiring anything else — so there is no lock-order cycle.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from ..core.event import Event
from ..core.model import Model
from ..core.stats import RunStats
from ..core.vtime import INFINITY, MINUS_INFINITY, VirtualTime
from ..fabric.plan import FaultPlan
from ..fabric.threaded import ThreadedFabric
from ..resilience import (DEFAULT_WALL_S, WallClockWatchdog, build_report,
                          resolve_watchdog, surface)
from .backend import (BackendOutcome, proc_has_work, resolve_model,
                      stamp_epoch)
from .cost import SHARED_MEMORY
from .engine import Processor, ProtocolError
from .machine import ParallelMachine
from .partition import Partition


@dataclass
class ThreadedOutcome(BackendOutcome):
    """Result of one threaded run (the shared backend shape)."""


class _Worker:
    """One thread driving one Processor."""

    def __init__(self, processor: Processor,
                 fabric: Optional[ThreadedFabric] = None) -> None:
        self.processor = processor
        self.fabric = fabric
        self.lock = threading.Lock()
        self.inbox_lock = threading.Lock()
        self.pending: List[Event] = []
        self.idle = threading.Event()
        self.thread: Optional[threading.Thread] = None

    def post(self, item) -> None:
        with self.inbox_lock:
            self.pending.append(item)
        self.idle.clear()

    def drain_pending(self) -> bool:
        with self.inbox_lock:
            batch, self.pending = self.pending, []
        for item in batch:
            # With a fabric, posted items are fabric packets that must be
            # unwrapped (dedup / reorder-buffer) into in-order events.
            events = ((item,) if self.fabric is None
                      else self.fabric.receive(item))
            for event in events:
                self.processor.deliver(event)
                self.processor.drain_local()
        return bool(batch)


class ThreadedMachine:
    """Run a Model on real threads; commits identical results."""

    def __init__(self, model: Model, processors: int,
                 protocol: str = "optimistic",
                 partition: Union[str, Partition, Callable] = "round_robin",
                 until: Optional[int] = None,
                 gvt_interval_s: float = 0.002,
                 fault_plan: Optional[FaultPlan] = None,
                 recovery: Optional[bool] = None,
                 watchdog_s: Optional[float] = None) -> None:
        if protocol == "dynamic":
            raise ValueError(
                "the threaded backend supports static protocols only; "
                "use the modelled machine for the dynamic configuration")
        model = resolve_model(model)
        model.validate()
        self.model = model
        self.until = until
        self.gvt = MINUS_INFINITY
        self.gvt_interval_s = gvt_interval_s
        self.gvt_rounds = 0
        self._stop = threading.Event()
        self._pause = threading.Event()
        self._paused = threading.Barrier(processors + 1)
        self._error: Optional[BaseException] = None
        # Delivery fabric: None keeps the historical raw-Event fast path;
        # a fault plan routes every remote message through the reliable
        # layer (see repro.fabric.threaded).
        if fault_plan is not None and (fault_plan.faulty or recovery):
            self.fabric: Optional[ThreadedFabric] = ThreadedFabric(
                fault_plan, recovery=recovery)
        else:
            self.fabric = None
        #: Crash schedule: (completed-global-rounds, processor) pairs.
        self._crashes = sorted(
            fault_plan.crashes) if fault_plan is not None else []
        # Build processors exactly like the modelled machine, then strip
        # the model-time aspects we do not need.
        inner = ParallelMachine(model, processors, protocol=protocol,
                                cost=SHARED_MEMORY, partition=partition,
                                until=until)
        self._inner = inner
        self.workers = [_Worker(proc, self.fabric) for proc in inner.procs]
        if self.fabric is not None:
            self.fabric.bind(self)
        # Liveness: wall-clock no-progress watchdog probed at global
        # rounds, plus the shared cancellation-horizon maintenance.
        # Eager lowering happens from worker threads (any rollback may
        # mint a cancellation) so it takes a leaf lock; the exact raise
        # happens only in _global_round with the world stopped.
        self.watchdog_bound = float(
            resolve_watchdog(watchdog_s, DEFAULT_WALL_S))
        self._watchdog = WallClockWatchdog(self.watchdog_bound)
        self._floor_lock = threading.Lock()
        self._liveness = RunStats()
        for worker in self.workers:
            proc = worker.processor
            proc.route = self._make_route(proc)
            proc.cancel_note = self._note_cancellation

    def _note_cancellation(self, time: VirtualTime) -> None:
        with self._floor_lock:
            for worker in self.workers:
                proc = worker.processor
                if time < proc.cancel_floor:
                    proc.cancel_floor = time

    def _cancellation_floor(self) -> VirtualTime:
        """Exact horizon recompute — called at quiescence, world stopped.

        At quiescence the cross-thread network is empty, so outstanding
        cancellations are withheld lazy entries plus any negatives still
        sitting in local FIFOs.  Computed *before* the lazy flush: every
        antimessage the flush then routes originates from a withheld
        entry this scan already counted, so the value stays a valid
        (at worst conservative) lower bound until the next round.
        """
        low = INFINITY
        for worker in self.workers:
            proc = worker.processor
            low = min(low, proc.withheld_low())
            for event in proc.local_fifo:
                if event.sign < 0 and event.time < low:
                    low = event.time
            with worker.inbox_lock:
                for item in worker.pending:
                    event = item if isinstance(item, Event) else None
                    if event is not None and event.sign < 0 \
                            and event.time < low:
                        low = event.time
        return low

    def _make_route(self, sender: Processor):
        placement = self._inner.placement
        runtimes = self._inner._runtimes

        def route(event: Event) -> None:
            event = stamp_epoch(runtimes, event)
            target = self.workers[placement[event.dst]]
            if target.processor is sender:
                sender.local_fifo.append(event)
            elif self.fabric is None:
                target.post(event)
            else:
                self.fabric.send(sender.index, target, event)
        return route

    # ------------------------------------------------------------------
    def run(self, timeout_s: float = 120.0) -> ThreadedOutcome:
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        deadline = time.monotonic() + timeout_s
        # Shutdown grace: how long a signalled worker may take to exit.
        # Derived from the run budget (a 2 s run should not hang 5 s in
        # joins) but bounded so joins stay snappy on long budgets.
        grace = max(0.5, min(5.0, timeout_s / 10.0))
        if self.fabric is not None and self.fabric.recovery:
            # Initial durable checkpoints, before any thread runs: a
            # crash in the first round recovers to the seeded state.
            self.fabric.take_checkpoints(self.workers)
        for worker in self.workers:
            worker.thread = threading.Thread(
                target=self._worker_loop, args=(worker,), daemon=True)
            worker.thread.start()
        failure: Optional[ProtocolError] = None
        try:
            self._coordinate(deadline)
        except ProtocolError as exc:
            failure = exc
        finally:
            self._stop.set()
            self._paused.abort()
            for worker in self.workers:
                worker.idle.set()
            join_deadline = time.monotonic() + grace
            laggards = []
            for worker in self.workers:
                if worker.thread is not None:
                    worker.thread.join(timeout=max(
                        0.05, join_deadline - time.monotonic()))
                    if worker.thread.is_alive():
                        laggards.append(worker.processor.index)
        if self._error is not None:
            raise self._error
        if failure is not None:
            # Attach what the run managed before the deadline so callers
            # (and test diagnostics) can see how far it got.
            failure.partial_stats = self._partial_stats()
            if laggards:
                failure.args = (
                    f"{failure.args[0]}; workers {laggards} did not stop "
                    f"within the {grace:.1f}s shutdown grace",)
            raise failure
        if laggards:
            exc = ProtocolError(
                f"workers {laggards} still alive {grace:.1f}s after the "
                f"run completed (wedged worker thread?)")
            exc.partial_stats = self._partial_stats()
            raise exc
        return self._finish()

    def _partial_stats(self) -> RunStats:
        """Best-effort counters for error reporting (post-shutdown)."""
        stats = RunStats()
        for worker in self.workers:
            stats.merge(worker.processor.stats)
        if self.fabric is not None:
            stats.merge(self.fabric.stats)
        self._liveness.watchdog_probes = self._watchdog.probes
        stats.merge(self._liveness)
        return stats

    def _worker_loop(self, worker: _Worker) -> None:
        try:
            while not self._stop.is_set():
                if self._pause.is_set():
                    # Double rendezvous: all workers pause, the
                    # coordinator works, everyone resumes.  A broken
                    # barrier is the shutdown signal (a thread released
                    # from a completed generation can still observe a
                    # subsequent abort), not an error: loop and re-check
                    # the stop flag.
                    try:
                        self._paused.wait()
                        self._paused.wait()
                    except threading.BrokenBarrierError:
                        continue
                progressed = False
                with worker.lock:
                    progressed |= worker.drain_pending()
                    progressed |= worker.processor.act()
                if not progressed:
                    worker.idle.set()
                    # Back off briefly; delivery or GVT will wake us.
                    worker.idle.wait(timeout=0.0005)
        except BaseException as exc:  # pragma: no cover - defensive
            self._error = exc
            self._stop.set()
        finally:
            # Unblock the coordinator if we die mid-pause.
            if self._error is not None:
                self._paused.abort()

    def _coordinate(self, deadline: float) -> None:
        while not self._stop.is_set():
            if time.monotonic() > deadline:
                error = ProtocolError(
                    f"threaded run exceeded its deadline after "
                    f"{self.gvt_rounds} global rounds (gvt {self.gvt})")
                # Best-effort forensics: workers are still running, but
                # attribute reads are atomic enough for a diagnosis.
                error.stall_report = build_report(
                    "threads", "run deadline exceeded",
                    (w.processor for w in self.workers), gvt=self.gvt,
                    bound=self.watchdog_bound)
                raise error
            time.sleep(self.gvt_interval_s)
            if not self._global_round(deadline):
                return
            if self._error is not None:
                return

    def _barrier_timeout(self, deadline: float) -> float:
        """Barrier waits are bounded by the run deadline, not a magic
        constant: a 2 s run must fail within ~2 s, and a generous budget
        may legitimately wait longer for a slow machine."""
        return max(0.1, min(10.0, deadline - time.monotonic()))

    def _pause_diagnostic(self) -> str:
        parked = self._paused.n_waiting
        alive = [w.processor.index for w in self.workers
                 if w.thread is not None and w.thread.is_alive()]
        return (f"{parked}/{len(self.workers) + 1} parties reached the "
                f"barrier; alive workers: {alive}")

    def _drain_to_quiescence(self) -> None:
        """Flush cross-thread inboxes to a fixpoint (world stopped).

        Delivering one worker's messages can trigger rollbacks whose
        antimessages land in the pending queue of a worker drained
        moments earlier, so the flush loops until nothing moves.  With a
        fabric, each pass also runs the retransmit pump: every
        unacknowledged (possibly dropped) message is re-posted — the
        per-message drop budget bounds the loop — so quiescence implies
        the *network* is empty too, not merely the queues.
        """
        while True:
            drained = False
            for worker in self.workers:
                drained |= worker.drain_pending()
            if self.fabric is not None and self.fabric.pump(self.workers):
                drained = True
            if drained:
                continue
            if self.fabric is not None and not self.fabric.quiet():
                # A pump pass may post nothing yet leave messages owed:
                # every retransmit die came up "drop".  The per-message
                # drop budget caps how often that can happen, so keep
                # pumping — the next passes are guaranteed to post.
                continue
            break

    def _global_round(self, deadline: float) -> bool:
        """Stop the world, advance GVT, release blocked LPs.

        Returns True while work remains.  Quiescence MUST be evaluated
        here, with every worker parked at the barrier: checked while
        workers run, a message in flight between two of them looks like
        global completion and the run would terminate with events
        unprocessed.
        """
        work_remains = True
        self._pause.set()
        for worker in self.workers:
            worker.idle.set()
        timeout = self._barrier_timeout(deadline)
        try:
            self._paused.wait(timeout=timeout)
        except threading.BrokenBarrierError:
            if self._error is None and not self._stop.is_set():
                raise ProtocolError(
                    f"worker failed to pause within {timeout:.1f}s "
                    f"({self._pause_diagnostic()})")
            return False
        try:
            self._drain_to_quiescence()
            # Crash schedule: fire with the world stopped and the
            # network provably empty, then re-drain — recovery re-posts
            # the peers' journals for the restored processor.
            while self._crashes and self._crashes[0][0] <= self.gvt_rounds:
                _at, victim = self._crashes.pop(0)
                self.fabric.crash(self.workers, victim, self.gvt)
                self._drain_to_quiescence()
            gvt = self._inner.compute_gvt()
            if gvt > self.gvt:
                self.gvt = gvt
            self._inner.gvt = self.gvt
            self._inner._refresh_release_floors()
            with self._floor_lock:
                floor = self._cancellation_floor()
                for worker in self.workers:
                    worker.processor.cancel_floor = floor
            for worker in self.workers:
                proc = worker.processor
                proc.gvt_bound = self.gvt
                proc.stats.gvt_rounds += 1
                proc.flush_lazy_all(self.gvt)
                proc.fossil_collect(self.gvt)
                proc.rearm_blocked()
            if self.fabric is not None and self.fabric.recovery:
                self.fabric.take_checkpoints(self.workers)
            self.gvt_rounds += 1
            self._sample_spread()
            if self._watchdog.tick(self._progress_marker()):
                self._stall(
                    f"no GVT advance or commit for "
                    f"{self._watchdog.idle_s:.1f}s "
                    f"(bound {self.watchdog_bound:.1f}s) at round "
                    f"{self.gvt_rounds}")
            work_remains = self._has_work()
        finally:
            # Release: clear the flag *before* the second rendezvous so
            # resumed workers observe it down.
            self._pause.clear()
            try:
                self._paused.wait(timeout=self._barrier_timeout(deadline))
            except threading.BrokenBarrierError:
                pass
        return work_remains

    def _sample_spread(self) -> None:
        """Korniss surface width, sampled with the world stopped."""
        if not self._watchdog.enabled:
            # watchdog_s=0 disables the liveness layer, sampling too.
            return
        lo, hi, width = surface(
            runtime.lp.now
            for worker in self.workers
            for runtime in worker.processor.runtimes.values())
        if lo is None:
            return
        self._liveness.vt_spread_samples += 1
        self._liveness.vt_spread_width_sum += width
        if width > self._liveness.vt_spread_width_max:
            self._liveness.vt_spread_width_max = width

    def _progress_marker(self):
        return (self.gvt,
                sum(worker.processor.stats.events_committed
                    for worker in self.workers))

    def _stall(self, reason: str) -> None:
        """Diagnose an unrecoverable stall (world stopped): raise with
        forensics; run() attaches the partial stats on the way out."""
        self._liveness.watchdog_stalls += 1
        pending = sum(len(worker.pending) for worker in self.workers)
        in_flight = {"worker_pending": pending}
        if self.fabric is not None:
            in_flight["fabric_quiet"] = self.fabric.quiet()
        error = ProtocolError(f"stall diagnosed: {reason}")
        error.stall_report = build_report(
            "threads", reason,
            (worker.processor for worker in self.workers),
            gvt=self.gvt, bound=self.watchdog_bound, in_flight=in_flight)
        raise error

    def _has_work(self) -> bool:
        if self.fabric is not None and not self.fabric.quiet():
            return True
        for worker in self.workers:
            with worker.inbox_lock:
                if worker.pending:
                    return True
            if proc_has_work(worker.processor, self.until):
                return True
        return False

    def _finish(self) -> ThreadedOutcome:
        for worker in self.workers:
            worker.processor.commit_remaining()
        stats = self._partial_stats()
        return ThreadedOutcome(stats=stats, gvt=self.gvt,
                               processors=len(self.workers),
                               gvt_rounds=self.gvt_rounds)


def run_threaded(model: Model, processors: int,
                 protocol: str = "optimistic",
                 partition: Union[str, Partition, Callable] = "round_robin",
                 until: Optional[int] = None,
                 timeout_s: float = 120.0,
                 fault_plan: Optional[FaultPlan] = None,
                 recovery: Optional[bool] = None,
                 watchdog_s: Optional[float] = None) -> ThreadedOutcome:
    """Convenience wrapper mirroring :func:`run_parallel`."""
    machine = ThreadedMachine(model, processors, protocol=protocol,
                              partition=partition, until=until,
                              fault_plan=fault_plan, recovery=recovery,
                              watchdog_s=watchdog_s)
    return machine.run(timeout_s=timeout_s)
