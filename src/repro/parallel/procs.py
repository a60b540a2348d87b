"""True multiprocess backend: the distributed kernel on worker processes.

The threads backend (:mod:`repro.parallel.threads`, this module's
lifecycle over in-process queues) proves the protocol is a distributed
algorithm but cannot show wall-clock speedup (CPython's GIL serializes
it).  This backend runs one :class:`~repro.parallel.engine.Processor` per
``multiprocessing`` worker — genuinely isolated address spaces that
communicate **only** through pickled messages — and is where the
paper's headline claim (speedup from parallel execution) becomes
measurable on real hardware (``benchmarks/bench_procs_speedup.py``).

The worker protocol itself — act quantum, batched flushes, the
pipelined Mattern token-ring GVT, fabric compatibility, crash
recovery — lives in :class:`repro.parallel.backend.WorkerCore`, shared
verbatim with the threads and distributed backends
(:mod:`repro.parallel.threads`, :mod:`repro.parallel.dist`).  This
module supplies the ``multiprocessing`` transport (one queue per
worker, one result queue) and the parent-side lifecycle; where the
queues and workers come from (:meth:`ProcsMachine._context`) and what
a worker runs (:meth:`ProcsMachine._worker_entry`) are the two hooks
the threads backend overrides.

Three design decisions carry the backend:

* **Batched IPC.**  Serialization is the dominant cost of process
  isolation, so events are never shipped one at a time.  Workers run an
  *act quantum* (up to ``quantum`` event executions), collecting remote
  sends per destination, then flush each destination's collected events
  as one pickled envelope.  ``RunStats.ipc_summary()`` reports the
  achieved amortization (events per envelope).

* **Asynchronous token-ring GVT (Mattern-style).**  There is no
  global barrier.  A single token circulates the worker ring
  ``0 -> 1 -> ... -> P-1 -> 0`` carrying, per wave, the minimum
  timestamp observed at each worker's cut (local queues *plus* the
  send-minimum of everything shipped since the previous cut) and the
  cumulative per-channel envelope counts.  When the token returns, the
  initiator (worker 0) checks the classic two-cut validity condition —
  every envelope sent before the *previous* wave's cuts has been
  received before this wave's cuts (per-channel ``recv_w >= sent_w-1``;
  the queues are per-producer FIFO) — and, if it holds, commits the
  wave's minimum as the new GVT.  The commit rides the next wave's
  token; each worker applies it at its visit (fossil collection, lazy
  flush, releasing blocked conservative LPs) without ever stopping the
  world.  Termination is the same machinery: a wave on which every
  worker was idle at its cut and every channel's send/receive counts
  agree proves there is no in-flight message and no runnable event
  (any later activation would need an envelope that the matched counts
  exclude), so the initiator broadcasts the stop.

* **Fabric compatibility.**  A :class:`~repro.fabric.plan.FaultPlan`
  routes every batch through the per-worker
  :class:`~repro.fabric.batched.BatchedEndpoint` (sequence numbers,
  journals, acks, dedup/reorder buffers); retransmission is
  token-driven (the pump runs at every token visit).  Crash-recovery
  works on real processes: durable checkpoints are taken at commit
  application, a crash is delivered as a ``die`` envelope, and the
  victim restores its checkpoint, reconciles its journaled output
  window through the lazy-cancellation machinery, rewinds its delivery
  horizons and broadcasts a recovery notice that makes every peer
  replay its journal and distrust stale conservative promises (epoch
  bump) — all without a global barrier.

Like every ring backend, the procs backend supports the static
protocols only (optimistic / conservative / mixed); the dynamic mode's
cross-processor mode sampling has no sound remote implementation
without extra synchronization.

**Start methods.**  Under ``fork`` workers inherit the pre-built
machine and nothing but events, tokens and final states ever crosses a
pickle boundary.  Under ``spawn``/``forkserver`` each worker instead
receives a :class:`_WorkerSpec` — the *pristine* pickled model
(snapshotted before the inner machine seeds init events) plus the
machine parameters — and deterministically rebuilds its own machine
locally: same model, same partition spec, same placement, same seeded
queues as every sibling.  This is the artifact discipline of
:mod:`repro.vhdl.artifact` applied at the worker boundary, and it is
what the dist backend ships over the wire.  The method is chosen by
the ``start_method`` parameter, then the ``REPRO_PROCS_START``
environment variable, then ``fork`` when the platform offers it, else
``spawn``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..core.model import Model
from ..core.stats import RunStats
from ..core.vtime import MINUS_INFINITY
from ..fabric.plan import FaultPlan
from ..resilience import DEFAULT_WALL_S, resolve_watchdog
from .backend import BackendOutcome, WorkerCore, resolve_model
from .cost import SHARED_MEMORY
from .engine import ProtocolError
from .machine import ParallelMachine
from .partition import Partition


@dataclass
class ProcsOutcome(BackendOutcome):
    """Result of one multiprocess run (the shared backend shape)."""

    #: Token-ring circulations completed (Mattern waves).
    waves: int = 0
    #: Wall-clock duration of the run, workers live to joined.
    wall_time_s: float = 0.0


#: Environment override for the worker start method.
START_ENV = "REPRO_PROCS_START"


def resolve_start_method(start_method: Optional[str] = None) -> str:
    """Pick the multiprocessing start method for the procs backend.

    Explicit argument > ``REPRO_PROCS_START`` env var > ``fork`` when
    the platform offers it (cheapest: no model pickling) > ``spawn``.
    """
    if start_method is None:
        start_method = os.environ.get(START_ENV) or None
    available = multiprocessing.get_all_start_methods()
    if start_method is None:
        return "fork" if "fork" in available else "spawn"
    if start_method not in available:
        raise ValueError(
            f"start method {start_method!r} not available on this "
            f"platform (have: {available})")
    return start_method


@dataclass
class _WorkerSpec:
    """Everything a spawned worker needs to rebuild its machine.

    ``model_payload`` is the pristine model pickled *before* the
    parent's inner machine seeded init events, so the child's build —
    same parameters, same deterministic partitioner — reproduces the
    exact machine a forked worker would have inherited.
    """

    model_payload: bytes
    processors: int
    protocol: str
    partition: Any
    until: Optional[int]
    quantum: int
    fault_plan: Optional[FaultPlan]
    recovery: bool
    watchdog_s: Optional[float] = None
    timeout_s: float = 120.0
    extra: Dict[str, Any] = field(default_factory=dict)


def _spawn_worker(spec: _WorkerSpec, index: int, queues: list,
                  result_queue) -> None:
    """Spawn-mode worker entry point (module-level: picklable by ref).

    Rebuilds the machine from the spec, wires in the parent-created
    queues, and runs the standard worker loop — from here on the two
    start methods are indistinguishable.
    """
    try:
        model = pickle.loads(spec.model_payload)
        machine = ProcsMachine(
            model, spec.processors, protocol=spec.protocol,
            partition=spec.partition, until=spec.until,
            quantum=spec.quantum, fault_plan=spec.fault_plan,
            recovery=spec.recovery, watchdog_s=spec.watchdog_s,
            _snapshot=False)
    except BaseException as exc:  # noqa: BLE001 - forwarded to parent
        try:
            result_queue.put(("error", index,
                              f"worker rebuild failed: "
                              f"{type(exc).__name__}: {exc}",
                              RunStats(), None))
        except Exception:  # pragma: no cover - queue already broken
            pass
        return
    machine._queues = queues
    machine._result_queue = result_queue
    machine._timeout_s = spec.timeout_s
    machine._worker_main(index)


class ProcsMachine(WorkerCore):
    """Run a Model on real worker processes; commits identical results."""

    backend_name = "procs"
    outcome_type = ProcsOutcome

    def __init__(self, model: Model, processors: int,
                 protocol: str = "optimistic",
                 partition: Union[str, Partition, Callable] = "round_robin",
                 until: Optional[int] = None,
                 quantum: int = 64,
                 fault_plan: Optional[FaultPlan] = None,
                 recovery: Optional[bool] = None,
                 watchdog_s: Optional[float] = None,
                 start_method: Optional[str] = None,
                 _snapshot: bool = True) -> None:
        if protocol == "dynamic":
            raise ValueError(
                f"the {self.backend_name} backend supports static "
                f"protocols only; use the modelled machine for the "
                f"dynamic configuration")
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        model = resolve_model(model)
        model.validate()
        self.model = model
        self.until = until
        self.quantum = quantum
        self.plan = fault_plan
        self.recovery = bool(
            (fault_plan.needs_recovery if fault_plan is not None else False)
            if recovery is None else recovery)
        self.use_fabric = (fault_plan is not None
                          and (fault_plan.faulty or self.recovery))
        #: Crash schedule: (completed-GVT-commits, worker) pairs.
        self._crash_schedule = sorted(
            fault_plan.crashes) if fault_plan is not None else []
        if self._crash_schedule and not self.recovery:
            raise ValueError("a crash schedule requires recovery=True")
        self.start_method = resolve_start_method(start_method)
        self._watchdog_s = watchdog_s
        self._spawn_payload: Optional[bytes] = None
        if _snapshot and self.start_method != "fork":
            # Snapshot the *pristine* model before the inner machine
            # build mutates it (init-event seeding): spawned workers
            # rebuild from this payload and must reproduce exactly the
            # state a forked worker would inherit.
            try:
                pickle.dumps(partition,
                             protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as failure:
                raise ValueError(
                    f"the {self.start_method!r} start method cannot "
                    f"ship this partition to workers ({failure}); use "
                    f"a named partitioner, a placement dict, a module-"
                    f"level partitioner function, or "
                    f"start_method='fork'") from failure
            try:
                self._spawn_payload = pickle.dumps(
                    model, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as failure:
                raise RuntimeError(
                    f"model is not picklable ({failure}), which the "
                    f"{self.start_method!r} start method requires; "
                    f"make process bodies module-level callables (see "
                    f"repro.circuits.bodies) or use "
                    f"start_method='fork'") from failure
        self._partition_spec = partition
        # Build processors exactly like the other real backend; under
        # fork workers inherit the fully seeded machine, under spawn
        # they rebuild it from the pristine payload.
        inner = ParallelMachine(model, processors, protocol=protocol,
                                cost=SHARED_MEMORY, partition=partition,
                                until=until)
        self._inner = inner
        self.protocol = protocol
        self.processors = processors
        self.watchdog_bound = float(
            resolve_watchdog(watchdog_s, DEFAULT_WALL_S))

    # ==================================================================
    # Parent side
    # ==================================================================
    def _context(self):
        """Where the run's queues and workers come from: anything with
        ``multiprocessing``'s ``Queue()`` and ``Process(target=, args=,
        daemon=)``."""
        return multiprocessing.get_context(self.start_method)

    def _worker_entry(self, index: int) -> Tuple[Callable, tuple]:
        """``(target, args)`` that run worker ``index``."""
        if self.start_method == "fork":
            return self._worker_main, (index,)
        spec = _WorkerSpec(
            model_payload=self._spawn_payload,
            processors=self.processors, protocol=self.protocol,
            partition=self._partition_spec, until=self.until,
            quantum=self.quantum, fault_plan=self.plan,
            recovery=self.recovery, watchdog_s=self._watchdog_s,
            timeout_s=self._timeout_s)
        return _spawn_worker, (spec, index, self._queues,
                               self._result_queue)

    def run(self, timeout_s: float = 120.0) -> ProcsOutcome:
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        start = time.monotonic()
        grace = max(0.5, min(5.0, timeout_s / 10.0))
        ctx = self._context()
        count = self.processors
        # Under fork: created before the fork so every worker inherits
        # every queue.  Under spawn: passed explicitly as process
        # arguments (multiprocessing duplicates the queue handles).
        self._queues = [ctx.Queue() for _ in range(count)]
        self._result_queue = ctx.Queue()
        self._timeout_s = timeout_s
        workers = []
        for index in range(count):
            target, args = self._worker_entry(index)
            worker = ctx.Process(target=target, args=args, daemon=True)
            worker.start()
            workers.append(worker)
        results: Dict[int, tuple] = {}
        error: Optional[tuple] = None
        deadline = start + timeout_s + grace
        while len(results) < count and error is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            # Sampled before the wait, judged after it: a worker that
            # reports and exits while the wait is timing out was alive
            # here, and its report is fetched on the next turn.
            dead = [i for i, w in enumerate(workers) if not w.is_alive()]
            try:
                message = self._result_queue.get(
                    timeout=min(0.5, remaining))
            except queue_module.Empty:
                dead = [i for i in dead if i not in results]
                if dead:
                    error = ("error", dead[0],
                             f"worker {dead[0]} died without reporting "
                             f"(exit codes: "
                             f"{[workers[i].exitcode for i in dead]})",
                             RunStats(), None)
                continue
            if message[0] == "done":
                results[message[1]] = message
            else:
                error = message
        if len(results) < count:
            # Error or deadline: the ring will not stop by itself, and a
            # thread worker cannot be terminated — every worker is told
            # to stop with the ring's own envelope.  (A worker process
            # that is gone never reads it: the parent must not wait at
            # exit to flush it.)
            for inbound in self._queues:
                inbound.put(("stop", MINUS_INFINITY, 0, 0))
                inbound.cancel_join_thread()
        for worker in workers:
            worker.join(timeout=max(0.05, deadline - time.monotonic()))
        laggards = [i for i, w in enumerate(workers) if w.is_alive()]
        for index in laggards:
            workers[index].terminate()
            workers[index].join(timeout=grace)
        partial = RunStats()
        for message in results.values():
            partial.merge(message[2])
        if error is not None:
            if error[3] is not None:
                partial.merge(error[3])
            failure = ProtocolError(
                f"{self.backend_name} worker {error[1]} failed: "
                f"{error[2]}")
            failure.partial_stats = partial
            if len(error) > 4 and error[4] is not None:
                failure.stall_report = error[4]
            raise failure
        if len(results) < count:
            missing = sorted(set(range(count)) - set(results))
            failure = ProtocolError(
                f"{self.backend_name} run exceeded its {timeout_s:g}s "
                f"deadline; workers {missing} never completed")
            failure.partial_stats = partial
            raise failure
        return self._harvest(results, time.monotonic() - start)

    def _harvest(self, results: Dict[int, tuple],
                 wall_time_s: float) -> ProcsOutcome:
        stats = RunStats()
        gvt = MINUS_INFINITY
        waves = 0
        commits = 0
        for index in range(self.processors):
            _tag, _i, wstats, lp_states, wgvt, wwaves, wcommits = \
                results[index]
            stats.merge(wstats)
            if wgvt > gvt:
                gvt = wgvt
            waves = max(waves, wwaves)
            commits = max(commits, wcommits)
            # Pull each worker's final LP states back into the parent's
            # model so callers (e.g. the VHDL kernel's trace collection)
            # read results exactly as they do for the other backends.
            for lp_id, (now, attrs) in lp_states.items():
                lp = self.model.lps[lp_id]
                lp.now = now
                for attr, value in attrs.items():
                    setattr(lp, attr, value)
        return self.outcome_type(stats=stats, gvt=gvt,
                                 processors=self.processors,
                                 gvt_rounds=commits, waves=waves,
                                 wall_time_s=wall_time_s)

    # ==================================================================
    # Worker side: the shared WorkerCore over multiprocessing queues
    # ==================================================================
    def _worker_main(self, index: int) -> None:
        self._run_worker(index, self._inner.procs[index],
                         self._inner._runtimes, self._inner.placement)

    def _send_envelope(self, target: int, envelope: tuple) -> None:
        self._queues[target].put(envelope)

    def _recv_envelope(self, block_s: float):
        inbound = self._queues[self._index]
        try:
            if block_s > 0:
                return inbound.get(timeout=block_s)
            return inbound.get_nowait()
        except queue_module.Empty:
            return None

    def _emit_result(self, message: tuple) -> None:
        self._result_queue.put(message)


def run_procs(model: Model, processors: int,
              protocol: str = "optimistic",
              partition: Union[str, Partition, Callable] = "round_robin",
              until: Optional[int] = None,
              quantum: int = 64,
              timeout_s: float = 120.0,
              fault_plan: Optional[FaultPlan] = None,
              recovery: Optional[bool] = None,
              watchdog_s: Optional[float] = None,
              start_method: Optional[str] = None) -> ProcsOutcome:
    """Convenience wrapper mirroring :func:`run_threaded`."""
    machine = ProcsMachine(model, processors, protocol=protocol,
                           partition=partition, until=until,
                           quantum=quantum, fault_plan=fault_plan,
                           recovery=recovery, watchdog_s=watchdog_s,
                           start_method=start_method)
    return machine.run(timeout_s=timeout_s)
