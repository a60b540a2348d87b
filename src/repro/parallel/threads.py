"""Real-thread backend: the worker ring on OS threads in one process.

The modelled machine (machine.py) is how the benchmarks measure
*speedup* — CPython's GIL makes wall-clock thread speedup unobtainable,
as documented in DESIGN.md.  This backend exists for a different
purpose: to demonstrate that the protocol really is a distributed
algorithm — LPs partitioned over concurrently running workers that
communicate only through message queues — and that it still commits
exactly the sequential results.

It is the procs backend with a different transport and nothing else:
the parent-side lifecycle is :meth:`ProcsMachine.run`, every worker
runs the unmodified :class:`~repro.parallel.backend.WorkerCore` loop
(token-ring GVT, :class:`~repro.fabric.batched.BatchedEndpoint`, the
``GVT + delta`` window, crash recovery), and an envelope reaches a peer
through a ``queue.SimpleQueue`` instead of a pipe: the backend overrides
the worker's envelope hooks and where the run's channels come from.
Nothing is ever pickled, whatever ``REPRO_PROCS_START`` says, so closure
bodies and generator stimuli run here.

Scope: the static protocols (optimistic / conservative / mixed).

**Shared runtimes.**  A procs worker holds *replicas* of its peers'
LP runtimes; thread workers share the live ones, so
``Processor._input_bound`` reads a peer's real ``mode`` and
``cons_epoch`` while that peer runs.  Sound for the static protocols:
``mode`` never changes.  ``cons_epoch`` changes only in
``WorkerCore._crash``, where ``restore_processor`` first writes the
checkpoint's value — equal to the live one, because every crash
re-checkpoints at once — and the victim then bumps it; a peer that sees
the bump before the ``recover`` notice only distrusts a stale promise
earlier than it had to, and the notice's own epoch write is then a
no-op.  The dynamic protocol changes ``mode`` mid-run and would need
replicas (or a mode carried on the wire) first.
"""

from __future__ import annotations

import copy
import queue
import threading
from typing import Callable, Tuple

from ..core.model import Model
from .backend import BackendOutcome, RingSpec, WorkerCore
from .procs import PARENT_STOP, ProcsMachine


class _Thread(threading.Thread):
    #: A thread has no exit status; ``ProcsMachine.run`` only prints it.
    exitcode = None

    def terminate(self) -> None:
        """Threads cannot be killed; they leave on the stop envelope."""


class _InProcess:
    """What ``ProcsMachine.run`` needs of a multiprocessing context."""

    Process = _Thread


class _Inboxes:
    """A threads run's channels: one ``SimpleQueue`` per worker, shared
    by every thread, and one for the results."""

    def __init__(self, count: int) -> None:
        self.queues = [queue.SimpleQueue() for _ in range(count)]
        self.results = queue.SimpleQueue()

    def started(self) -> None:
        """Nothing to hand over: every thread shares every queue."""

    def stop(self) -> None:
        for inbox in self.queues:
            inbox.put(PARENT_STOP)

    def close(self) -> None:
        """Nothing to close."""


class ThreadedMachine(ProcsMachine):
    """Run a Model on real threads; commits identical results."""

    backend_name = "threads"

    def __init__(self, model: Model, processors: int, **ring) -> None:
        # No start method to resolve, no payload to snapshot.
        WorkerCore.__init__(self, model, RingSpec(
            processors, timeout_s=120.0, **ring))

    def _context(self) -> _InProcess:
        return _InProcess()

    def _open_channels(self, ctx, count: int) -> _Inboxes:
        return _Inboxes(count)

    def _worker_entry(self, index: int,
                      channels: _Inboxes) -> Tuple[Callable, tuple]:
        # A forked worker is a copy of the machine; a thread gets the
        # same: its own ring state (and crash schedule) over the shared
        # processors and queues.
        worker = copy.copy(self)
        worker._crash_schedule = list(self._crash_schedule)
        worker._queues = channels.queues
        worker._result_queue = channels.results
        return worker._run_index, (index,)

    # -- transport hooks: the shared queues, nothing pickled -------------
    def _send_envelope(self, target: int, envelope: tuple) -> None:
        self._queues[target].put(envelope)

    def _recv_envelope(self, block_s: float):
        inbound = self._queues[self._index]
        try:
            if block_s > 0:
                return inbound.get(timeout=block_s)
            return inbound.get_nowait()
        except queue.Empty:
            return None

    def _emit_result(self, message: tuple) -> None:
        self._result_queue.put(message)


def run_threaded(model: Model, processors: int, timeout_s: float = 120.0,
                 **config) -> BackendOutcome:
    """``ThreadedMachine(model, processors, **config).run(timeout_s)``."""
    return ThreadedMachine(model, processors, **config).run(timeout_s)
