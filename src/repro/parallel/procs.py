"""True multiprocess backend: the distributed kernel on worker processes.

The threads backend (:mod:`repro.parallel.threads`) proves the protocol
is a distributed algorithm, but its workers take turns in one thread and
so cannot show wall-clock speedup.  This backend runs one
:class:`~repro.parallel.engine.Processor` per ``multiprocessing`` worker
— genuinely isolated address spaces that communicate **only** through
pickled messages — and is where the paper's headline claim (speedup
from parallel execution) becomes measurable on real hardware
(``benchmarks/bench_procs_speedup.py``).

The worker protocol itself — act quantum, batched flushes, the
pipelined Mattern token-ring GVT, fabric compatibility, crash
recovery — lives in :class:`repro.parallel.backend.WorkerCore`, shared
verbatim with the threads and distributed backends
(:mod:`repro.parallel.threads`, :mod:`repro.parallel.dist`).  This
module supplies the transport (a mesh of one-way pipes, one result
queue) and the parent-side lifecycle, :meth:`ProcsMachine.run`.

Three design decisions carry the backend:

* **Batched IPC over a pipe mesh.**  Serialization is the dominant cost
  of process isolation, so events are never shipped one at a time.
  Workers run an *act quantum* (up to ``backend.QUANTUM`` event
  executions), collecting remote sends per destination, then flush each
  destination's collected events as one pickled envelope.
  ``RunStats.ipc_summary()`` reports the achieved amortization (events
  per envelope).  Every ordered pair of workers has its own one-way
  pipe, and the parent one control pipe to each worker (its ``stop``
  after an error or at the deadline).  The sending worker writes each
  envelope itself, framed by :mod:`repro.fabric.wire` — no feeder
  thread that would have to win the interpreter lock back from a
  sender that keeps computing.  A send never blocks
  (:class:`MeshEndpoint`): two workers that each wrote a full pipe
  buffer toward the other would otherwise both sleep in ``write`` and
  never read again.

* **Asynchronous token-ring GVT (Mattern-style).**  There is no
  global barrier.  A single token circulates the worker ring
  ``0 -> 1 -> ... -> P-1 -> 0`` carrying, per wave, the minimum
  timestamp observed at each worker's cut (local queues *plus* the
  send-minimum of everything shipped since the previous cut) and the
  cumulative per-channel envelope counts.  When the token returns, the
  initiator (worker 0) checks the classic two-cut validity condition —
  every envelope sent before the *previous* wave's cuts has been
  received before this wave's cuts (per-channel ``recv_w >= sent_w-1``;
  each channel is FIFO, one pipe with one writer and one reader) — and,
  if it holds, commits the wave's minimum as the new GVT.  The commit
  rides the next wave's token; each worker applies it at its visit
  (fossil collection, withheld flush, releasing blocked conservative
  LPs) without ever stopping the world.  Termination is the same
  machinery: a wave on which every worker was idle at its cut and every
  channel's send/receive counts agree proves there is no in-flight
  message and no runnable event (any later activation would need an
  envelope that the matched counts exclude), so the initiator
  broadcasts the stop.

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
machine and every pipe end (each closes the ends that are not its own),
and nothing but events, tokens and final states ever crosses a pickle
boundary.  Under ``spawn``/``forkserver`` each worker instead receives
its own pipe ends as :class:`multiprocessing.connection.Connection`
arguments, the *pristine* pickled model and the run's
:class:`~repro.config.RingSpec` — exactly what the dist
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
import select
import time
from collections import deque
from dataclasses import replace
from typing import Dict, List, Optional

from ..core.model import Model
from ..core.stats import RunStats
from ..core.vtime import MINUS_INFINITY
from ..fabric.wire import HEADER_SIZE, decode_header, encode_frame
from .backend import (BackendOutcome, RingSpec, WorkerCore, harvest,
                      pristine_payload)
from .engine import resolve_model


#: Environment override for the worker start method.
START_ENV = "REPRO_PROCS_START"

#: The envelope the parent writes on a control pipe (error, deadline).
PARENT_STOP = ("stop", MINUS_INFINITY, 0, 0)

#: Bytes one read takes off an inbound pipe (a pipe buffer's worth).
_READ_SIZE = 1 << 16


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


class MeshEndpoint:
    """One worker's end of the pipe mesh: what it sends, what it reads.

    ``inbound`` maps each peer to the read end of the pipe it writes
    this worker on, ``outbound`` each peer to the write end of this
    worker's pipe to it; ``control`` is the read end of the parent's
    control pipe (``None``: no parent).  All are raw file descriptors,
    owned by the endpoint from here on.

    **A send never blocks.**  Every descriptor is non-blocking.  A send
    writes what the pipe takes and keeps the rest in that channel's
    backlog, behind which every later send to the same peer queues, in
    order; every receive retries the backlogs first, and an idle wait
    wakes for a backlogged channel turning writable as well as for
    input.  Two workers that each have more than a pipe buffer unread
    toward the other therefore both return from their sends and read.

    Each pipe has one writer and one reader, so every channel is FIFO.
    Inbound bytes collect in a per-descriptor buffer, from which every
    whole frame is decoded at once (a receive is then a ``popleft``, not
    a system call).  A self-send is appended to the same queue of
    decoded envelopes.  End of file on a pipe drops it from the wait;
    a write to a peer that is gone drops that channel and its backlog
    (the parent diagnoses the dead worker, not the sender).
    """

    def __init__(self, index: int, inbound: Dict[int, int],
                 outbound: Dict[int, int],
                 control: Optional[int] = None) -> None:
        self.index = index
        self._out = dict(outbound)
        #: Per peer: bytes the pipe did not take yet (absent: dead).
        self._backlog: Dict[int, bytearray] = {
            peer: bytearray() for peer in outbound}
        #: Peers whose backlog is not empty.
        self._waiting: set = set()
        #: Per open inbound descriptor: bytes short of a whole frame.
        self._partial: Dict[int, bytearray] = {}
        self._ready: deque = deque()
        self._poll = select.poll()
        readers = list(inbound.values())
        if control is not None:
            readers.append(control)
        for fd in readers:
            os.set_blocking(fd, False)
            self._partial[fd] = bytearray()
            self._poll.register(fd, select.POLLIN)
        for fd in self._out.values():
            os.set_blocking(fd, False)

    # -- sending --------------------------------------------------------
    def send(self, target: int, envelope: tuple) -> None:
        """Queue one envelope for ``target``; never blocks."""
        if target == self.index:
            self._ready.append(envelope)
            return
        backlog = self._backlog.get(target)
        if backlog is None:
            return  # the peer is gone
        frame = encode_frame(envelope)
        if backlog:
            backlog += frame
            return
        try:
            written = os.write(self._out[target], frame)
        except BlockingIOError:
            written = 0
        except BrokenPipeError:
            self._drop(target)
            return
        if written < len(frame):
            backlog += memoryview(frame)[written:]
            self._waiting.add(target)
            self._poll.register(self._out[target], select.POLLOUT)

    def _pump(self) -> None:
        """Write what the pipes take of every backlog."""
        for target in list(self._waiting):
            backlog = self._backlog[target]
            try:
                written = os.write(self._out[target], backlog)
            except BlockingIOError:
                continue
            except BrokenPipeError:
                self._drop(target)
                continue
            del backlog[:written]
            if not backlog:
                self._waiting.discard(target)
                self._poll.unregister(self._out[target])

    def _drop(self, target: int) -> None:
        if target in self._waiting:
            self._waiting.discard(target)
            self._poll.unregister(self._out[target])
        del self._backlog[target]
        os.close(self._out.pop(target))

    # -- receiving ------------------------------------------------------
    def recv(self, block_s: float = 0.0):
        """The next inbound envelope, waiting up to ``block_s`` seconds
        for one; ``None`` if none came."""
        if self._waiting:
            self._pump()
        ready = self._ready
        if not ready:
            if block_s > 0:
                end = time.monotonic() + block_s
            self._wait(block_s)
            # Woken by a writable backlog alone: wait on.
            while not ready and block_s > 0:
                block_s = end - time.monotonic()
                if block_s > 0:
                    self._wait(block_s)
        return ready.popleft() if ready else None

    def _wait(self, block_s: float) -> None:
        """One ``poll``: read what is readable, write what is writable."""
        partial = self._partial
        for fd, _mask in self._poll.poll(1000.0 * block_s):
            if fd in partial:
                self._read(fd)
            else:
                self._pump()

    def _read(self, fd: int) -> None:
        try:
            chunk = os.read(fd, _READ_SIZE)
        except BlockingIOError:
            return
        if not chunk:  # end of file: the writer is gone
            self._poll.unregister(fd)
            del self._partial[fd]
            os.close(fd)
            return
        buffer = self._partial[fd]
        buffer += chunk
        ready = self._ready
        pos, size = 0, len(buffer)
        with memoryview(buffer) as view:
            while size - pos >= HEADER_SIZE:
                end = pos + HEADER_SIZE + decode_header(
                    view[pos:pos + HEADER_SIZE])
                if end > size:
                    break
                ready.append(pickle.loads(view[pos + HEADER_SIZE:end]))
                pos = end
        del buffer[:pos]

    # -- the end ----------------------------------------------------------
    def flush(self, deadline: float) -> None:
        """Wait until every backlog is written, reading inbound all the
        while (a peer may be flushing toward this worker), or until
        ``deadline`` (``time.monotonic()``)."""
        while self._waiting:
            self._pump()
            left = deadline - time.monotonic()
            if not self._waiting or left <= 0:
                return
            self._wait(min(left, 0.05))

    def close(self) -> None:
        for fd in list(self._partial) + list(self._out.values()):
            os.close(fd)
        self._partial.clear()
        self._out.clear()
        self._backlog.clear()
        self._waiting.clear()


class _Pipes:
    """A procs run's channels, parent side: the mesh, the control
    pipes, the result queue.  ``ends[i]`` is what worker ``i`` keeps —
    ``(inbound, outbound, control)`` :class:`Connection` s."""

    def __init__(self, ctx, count: int) -> None:
        pipes = {(src, dst): ctx.Pipe(duplex=False)
                 for src in range(count) for dst in range(count)
                 if src != dst}
        control = [ctx.Pipe(duplex=False) for _ in range(count)]
        self.ends = [({src: pipes[src, i][0] for src in range(count)
                       if src != i},
                      {dst: pipes[i, dst][1] for dst in range(count)
                       if dst != i},
                      control[i][0]) for i in range(count)]
        self.control = [writer for _reader, writer in control]
        self.results = ctx.Queue()

    def _worker_ends(self) -> List:
        return [end for inbound, outbound, control in self.ends
                for end in (*inbound.values(), *outbound.values(), control)]

    def connections(self) -> List:
        """Every pipe end this process holds."""
        return self.control + self._worker_ends()

    def started(self) -> None:
        """The workers hold their own ends now: an end of file or a
        broken pipe must mean that a worker is gone."""
        for end in self._worker_ends():
            end.close()

    def stop(self) -> None:
        frame = encode_frame(PARENT_STOP)
        for writer in self.control:
            try:
                # Smaller than a pipe buffer, on an empty pipe: whole.
                os.write(writer.fileno(), frame)
            except OSError:
                pass  # that worker is gone

    def close(self) -> None:
        for end in self.connections():
            end.close()
        self.results.close()


def _take(end) -> int:
    """The descriptor of a pipe end, owned by the caller from now on
    (the :class:`Connection` closes its own)."""
    fd = os.dup(end.fileno())
    end.close()
    return fd


def _rebuild(payload: bytes, spec: RingSpec) -> "ProcsMachine":
    """A spawn-mode worker's machine: the ring constructor on the
    pristine model, with none of the parent's start-method state."""
    machine = ProcsMachine.__new__(ProcsMachine)
    WorkerCore.__init__(machine, pickle.loads(payload), spec)
    return machine


def _spawn_worker(payload: bytes, spec: RingSpec, index: int,
                  ends: tuple, results) -> None:
    """Spawn-mode worker entry point (module-level: picklable by ref).

    Rebuilds the machine and serves worker ``index`` over the pipe ends
    it was handed — from here on the start methods are
    indistinguishable.
    """
    try:
        machine = _rebuild(payload, spec)
    except BaseException as exc:  # noqa: BLE001 - forwarded to parent
        try:
            results.put(("error", index,
                         f"worker rebuild failed: "
                         f"{type(exc).__name__}: {exc}",
                         RunStats(), None))
        except Exception:  # pragma: no cover - queue already broken
            pass
        return
    machine._serve(index, ends, results, ())


class ProcsMachine(WorkerCore):
    """Run a Model on real worker processes; commits identical results.

    ``ring`` is the run itself — ``protocol``, ``partition``, ``until``,
    ``fault_plan``, ``recovery``, ``watchdog_s``: the
    fields of :class:`~repro.config.RingSpec`.
    """

    backend_name = "procs"

    def __init__(self, model: Model, processors: int,
                 start_method: Optional[str] = None, **ring) -> None:
        spec = RingSpec.of(processors, **ring)
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
    def run(self, timeout_s: float = 120.0) -> BackendOutcome:
        self.spec = replace(self.spec, timeout_s=timeout_s)
        start = time.monotonic()
        grace = max(0.5, min(5.0, timeout_s / 10.0))
        ctx = multiprocessing.get_context(self.start_method)
        count = self.spec.processors
        channels = _Pipes(ctx, count)
        results: Dict[int, tuple] = {}
        error: Optional[tuple] = None
        try:
            workers = []
            for index in range(count):
                ends = channels.ends[index]
                if self._payload is None:
                    target, args = self._serve, (
                        index, ends, channels.results,
                        channels.connections())
                else:
                    target, args = _spawn_worker, (
                        self._payload, self.spec, index, ends,
                        channels.results)
                worker = ctx.Process(target=target, args=args, daemon=True)
                worker.start()
                workers.append(worker)
            channels.started()
            deadline = start + timeout_s + grace
            while len(results) < count and error is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                # Sampled before the wait, judged after it: a worker
                # that reports and exits while the wait is timing out
                # was alive here, and its report is fetched next turn.
                dead = [i for i, w in enumerate(workers)
                        if not w.is_alive()]
                try:
                    message = channels.results.get(
                        timeout=min(0.5, remaining))
                except queue_module.Empty:
                    dead = [i for i in dead if i not in results]
                    if dead:
                        error = ("error", dead[0],
                                 f"worker {dead[0]} died without "
                                 f"reporting (exit codes: "
                                 f"{[workers[i].exitcode for i in dead]})",
                                 RunStats(), None)
                    continue
                if message[0] == "done":
                    results[message[1]] = message
                else:
                    error = message
            if len(results) < count:
                # Error or deadline: the ring will not stop by itself;
                # every worker is told to stop with the ring's own
                # envelope.
                channels.stop()
            for worker in workers:
                worker.join(timeout=max(0.05, deadline - time.monotonic()))
            laggards = [i for i, w in enumerate(workers) if w.is_alive()]
            for index in laggards:
                workers[index].terminate()
                workers[index].join(timeout=grace)
        finally:
            channels.close()
        return harvest(self, results, error, time.monotonic() - start)

    # ==================================================================
    # Worker side: the shared WorkerCore over the pipe mesh
    # ==================================================================
    def _serve(self, index: int, ends: tuple, results,
               inherited: List) -> None:
        """Be worker ``index`` over its own pipe ends; close the
        ``inherited`` ones (a forked worker holds every end)."""
        inbound, outbound, control = ends
        self._mesh = MeshEndpoint(
            index, {src: _take(end) for src, end in inbound.items()},
            {dst: _take(end) for dst, end in outbound.items()},
            _take(control))
        for end in inherited:
            end.close()
        self._result_queue = results
        self._deadline = time.monotonic() + self.spec.timeout_s
        self._run_index(index)

    def _send_envelope(self, target: int, envelope: tuple) -> None:
        self._mesh.send(target, envelope)

    def _recv_envelope(self, block_s: float):
        return self._mesh.recv(block_s)

    def _emit_result(self, message: tuple) -> None:
        if message[0] == "done":
            # The stop this worker may have broadcast is still ours.
            self._mesh.flush(self._deadline)
        self._result_queue.put(message)


def run_procs(model: Model, processors: int, timeout_s: float = 120.0,
              **config) -> BackendOutcome:
    """``ProcsMachine(model, processors, **config).run(timeout_s)``."""
    return ProcsMachine(model, processors, **config).run(timeout_s)
