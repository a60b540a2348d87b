"""In-process backend: the worker ring's workers take turns in one thread.

The modelled machine (machine.py) is how the benchmarks measure
*speedup*.  This backend exists for a different purpose: to show that
the protocol really is a distributed algorithm — LPs partitioned over
workers that communicate only through messages — and that it still
commits exactly the sequential results, on the same code the procs and
dist workers run.

Every worker runs the unmodified
:class:`~repro.parallel.backend.WorkerCore` loop (token-ring GVT,
:class:`~repro.fabric.batched.BatchedEndpoint`, the ``GVT + delta``
window, crash recovery), one turn at a time: ``run()``
resumes the P workers round-robin, in index order, in the caller's
thread.  An envelope reaches a peer through that peer's ``deque``; a
worker never waits for one, because nothing can arrive while it waits —
its peers run on their own turns.  A run is therefore a pure function
of the model, the :class:`~repro.config.RingSpec` and its
fault plan: two runs commit the same waves in the same order and count
the same statistics.  Nothing is ever pickled, whatever
``REPRO_PROCS_START`` says, so closure bodies and generator stimuli run
here.

Scope: the static protocols (optimistic / conservative / mixed).

**Shared runtimes.**  A procs worker holds *replicas* of its peers'
LP runtimes; the workers here share the live ones, so
``Processor._input_bound`` reads a peer's real ``mode`` and
``cons_epoch`` — only between that peer's turns.  Sound for the static
protocols: ``mode`` never changes.  ``cons_epoch`` changes only in
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
import time
from collections import deque
from dataclasses import replace

from ..core.model import Model
from .backend import BackendOutcome, RingSpec, WorkerCore, harvest


class ThreadedMachine(WorkerCore):
    """Run a Model's workers by turns in one thread; commits identical
    results."""

    backend_name = "threads"

    def __init__(self, model: Model, processors: int, **ring) -> None:
        super().__init__(model, RingSpec.of(processors, **ring))

    def run(self, timeout_s: float = 120.0) -> BackendOutcome:
        self.spec = replace(self.spec, timeout_s=timeout_s)
        start = time.monotonic()
        count = self.spec.processors
        self._inboxes = [deque() for _ in range(count)]
        self._done = {}
        self._errors = []
        # Each worker is a copy of the machine, as a forked one is: its
        # own ring state over the shared processors and inboxes.
        turns = {index: copy.copy(self)._turns(index)
                 for index in range(count)}
        try:
            while turns and not self._errors:
                for index in list(turns):
                    try:
                        next(turns[index])
                    except StopIteration:
                        del turns[index]
                    if self._errors:
                        break
        finally:
            for turn in turns.values():
                turn.close()
        error = self._errors[0] if self._errors else None
        return harvest(self, self._done, error, time.monotonic() - start)

    # -- transport hooks: the shared inboxes, nothing pickled ------------
    def _send_envelope(self, target: int, envelope: tuple) -> None:
        self._inboxes[target].append(envelope)

    def _recv_envelope(self, block_s: float):
        inbox = self._inboxes[self._index]
        return inbox.popleft() if inbox else None

    def _emit_result(self, message: tuple) -> None:
        if message[0] == "done":
            self._done[message[1]] = message
        else:
            self._errors.append(message)


def run_threaded(model: Model, processors: int, timeout_s: float = 120.0,
                 **config) -> BackendOutcome:
    """``ThreadedMachine(model, processors, **config).run(timeout_s)``."""
    return ThreadedMachine(model, processors, **config).run(timeout_s)
