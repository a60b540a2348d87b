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
  *act quantum* (up to ``backend.QUANTUM`` event executions), collecting
  remote sends per destination, then flush each destination's collected
  events as one pickled envelope.  ``RunStats.ipc_summary()`` reports the
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
  token; each worker applies it at its visit (fossil collection, withheld
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
  window through the withheld-send path, rewinds its delivery
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
receives the *pristine* pickled model and the run's
:class:`~repro.parallel.backend.RingSpec` — exactly what the dist
backend ships over the wire — and rebuilds its own machine with the
one ring constructor: same model, same spec, hence the same placement
and the same seeded queues as every sibling
(:func:`~repro.parallel.backend.pristine_payload`).  The method is
chosen by the ``start_method`` parameter, then the
``REPRO_PROCS_START`` environment variable, then ``fork`` when the
platform offers it, else ``spawn``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import time
from dataclasses import replace
from typing import Callable, Dict, Optional, Tuple

from ..core.model import Model
from ..core.stats import RunStats
from ..core.vtime import MINUS_INFINITY
from .backend import (BackendOutcome, RingSpec, WorkerCore, harvest,
                      pristine_payload)
from .engine import resolve_model


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


def _rebuild(payload: bytes, spec: RingSpec) -> "ProcsMachine":
    """A spawn-mode worker's machine: the ring constructor on the
    pristine model, with none of the parent's start-method state."""
    machine = ProcsMachine.__new__(ProcsMachine)
    WorkerCore.__init__(machine, pickle.loads(payload), spec)
    return machine


def _spawn_worker(payload: bytes, spec: RingSpec, index: int,
                  queues: list, result_queue) -> None:
    """Spawn-mode worker entry point (module-level: picklable by ref).

    Rebuilds the machine, wires in the parent-created queues, and runs
    the standard worker loop — from here on the two start methods are
    indistinguishable.
    """
    try:
        machine = _rebuild(payload, spec)
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
    machine._run_index(index)


class ProcsMachine(WorkerCore):
    """Run a Model on real worker processes; commits identical results.

    ``ring`` is the run itself — ``protocol``, ``partition``, ``until``,
    ``fault_plan``, ``recovery``, ``watchdog_s``: the
    fields of :class:`~repro.parallel.backend.RingSpec`.
    """

    backend_name = "procs"

    def __init__(self, model: Model, processors: int,
                 start_method: Optional[str] = None, **ring) -> None:
        # ``timeout_s`` is run()'s, not a constructor parameter.
        spec = RingSpec(processors, timeout_s=120.0, **ring)
        self.start_method = resolve_start_method(start_method)
        model = resolve_model(model)
        #: What a worker that cannot inherit this machine rebuilds it
        #: from — taken before the build below seeds init events.
        self._payload = (None if self.start_method == "fork" else
                         pristine_payload(model, spec.partition))
        super().__init__(model, spec)

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
        if self._payload is None:
            return self._run_index, (index,)
        return _spawn_worker, (self._payload, self.spec, index,
                               self._queues, self._result_queue)

    def run(self, timeout_s: float = 120.0) -> BackendOutcome:
        self.spec = replace(self.spec, timeout_s=timeout_s)
        start = time.monotonic()
        grace = max(0.5, min(5.0, timeout_s / 10.0))
        ctx = self._context()
        count = self.spec.processors
        # Under fork: created before the fork so every worker inherits
        # every queue.  Under spawn: passed explicitly as process
        # arguments (multiprocessing duplicates the queue handles).
        self._queues = [ctx.Queue() for _ in range(count)]
        self._result_queue = ctx.Queue()
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
        return harvest(self, results, error, time.monotonic() - start)

    # ==================================================================
    # Worker side: the shared WorkerCore over multiprocessing queues
    # ==================================================================
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


def run_procs(model: Model, processors: int, timeout_s: float = 120.0,
              **config) -> BackendOutcome:
    """``ProcsMachine(model, processors, **config).run(timeout_s)``."""
    return ProcsMachine(model, processors, **config).run(timeout_s)
