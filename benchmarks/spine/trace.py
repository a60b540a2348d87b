"""Outside-in span tracer for the measurement spine.

Nothing under ``src/`` knows about this file.  ``SpanTracer.install()``
replaces public methods and functions of the simulator *at class /
module level* with wrappers that record one span per call; ``remove()``
puts the originals back.  End-to-end numbers are always measured with
the wrappers removed; a separate traced pass gives the per-layer rows
and the difference between the two is ``trace.overhead_share``.

A span is ``(name, start, end, parent, run_id)``.  Self time is a
span's duration minus the part its child spans cover.  Raw spans are
kept for the first traced run only (bounded by ``RAW_CAP``); every run
keeps per-name aggregates ``[calls, inclusive_s, self_s]``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Span name -> "module:Class.attr" or "module:function".  Only public
#: names; the first component of a span name is the layer it bills to.
SPANS: Tuple[Tuple[str, str], ...] = (
    ("frontend.parse", "repro.vhdl.frontend.parser:parse"),
    ("frontend.elaborate", "repro.vhdl.frontend.elaborator:elaborate"),
    ("compile.lower", "repro.vhdl.compile:lower_design"),
    ("artifact.snapshot", "repro.vhdl.artifact:DesignArtifact.from_design"),
    ("artifact.instantiate", "repro.vhdl.artifact:DesignArtifact.instantiate"),
    ("design.elaborate", "repro.vhdl.design:Design.elaborate"),
    ("machine.ctor", "repro.core.sequential:SequentialSimulator.__init__"),
    ("sequential.run", "repro.core.sequential:SequentialSimulator.run"),
    ("machine.ctor", "repro.parallel.machine:ParallelMachine.__init__"),
    ("machine.run", "repro.parallel.machine:ParallelMachine.run"),
    ("machine.gvt", "repro.parallel.machine:ParallelMachine.compute_gvt"),
    ("machine.ctor", "repro.parallel.procs:ProcsMachine.__init__"),
    ("procs.run", "repro.parallel.procs:ProcsMachine.run"),
    ("machine.ctor", "repro.parallel.dist:DistMachine.__init__"),
    ("dist.run", "repro.parallel.dist:DistMachine.run"),
    ("engine.act", "repro.parallel.engine:Processor.act"),
    ("engine.deliver", "repro.parallel.engine:Processor.deliver"),
    ("engine.fossil", "repro.parallel.engine:Processor.fossil_collect"),
    ("engine.has_work_at", "repro.parallel.engine:Processor.has_work_at"),
    ("engine.local_min_time",
     "repro.parallel.engine:Processor.local_min_time"),
    ("signal.simulate", "repro.vhdl.signal:SignalLP.simulate"),
    ("signal.snapshot", "repro.vhdl.signal:SignalLP.snapshot"),
    ("signal.restore", "repro.vhdl.signal:SignalLP.restore"),
    ("process.simulate", "repro.vhdl.process:ProcessLP.simulate"),
    ("process.snapshot", "repro.vhdl.process:ProcessLP.snapshot"),
    ("process.restore", "repro.vhdl.process:ProcessLP.restore"),
    ("harness.run_schedule", "repro.harness.check:Checker.run_schedule"),
    ("harness.oracle", "repro.harness.check:Checker.oracle"),
    ("harness.invariants", "repro.harness.invariants:check_all"),
)

#: Raw spans kept for the first run (a model-p4 pass has ~400k).
RAW_CAP = 100_000


class SpanTracer:
    """Records spans around the callables listed in :data:`SPANS`."""

    def __init__(self) -> None:
        #: One entry per ``begin_run``: label + ``{name: [n, incl, self]}``.
        self.runs: List[Dict] = []
        self.raw: List[Optional[tuple]] = []
        self.raw_truncated = False
        self._agg: Dict[str, List[float]] = {}
        #: The run spans are billed to; spans before the first
        #: ``begin_run`` land in a throw-away one.
        self._current: Dict = {"label": "", "spans": self._agg,
                               "root_s": 0.0}
        self._run_id = -1
        #: Open spans, innermost last: [child_seconds, raw_index].
        self._stack: List[List] = []
        self._depth: Dict[str, int] = {}
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def begin_run(self, label: str) -> None:
        """Spans recorded from now on belong to a new run."""
        self._agg = {}
        self._run_id = len(self.runs)
        #: ``root_s``: seconds inside spans that have no parent span.
        self._current = {"label": label, "spans": self._agg,
                         "root_s": 0.0}
        self.runs.append(self._current)

    def totals(self, name: str, runs=None) -> Tuple[int, float, float]:
        """``(calls, inclusive_s, self_s)`` of ``name`` over ``runs``."""
        calls, incl, self_s = 0, 0.0, 0.0
        for run in (self.runs if runs is None else runs):
            entry = run["spans"].get(name)
            if entry is not None:
                calls += entry[0]
                incl += entry[1]
                self_s += entry[2]
        return int(calls), incl, self_s

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter
        tracer = self
        depth[name] = 0

        def span(*args, **kwargs):
            keep_raw = tracer._run_id == 0 and len(tracer.raw) < RAW_CAP
            if keep_raw:
                parent = stack[-1][1] if stack else -1
                frame = [0.0, len(tracer.raw), parent]
                tracer.raw.append(None)
            else:
                frame = [0.0, -1]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                entry = tracer._agg.get(name)
                if entry is None:
                    entry = tracer._agg[name] = [0, 0.0, 0.0]
                entry[0] += 1
                if not depth[name]:  # outermost: recursion counts once
                    entry[1] += duration
                entry[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer._current["root_s"] += duration
                if keep_raw:
                    tracer.raw[frame[1]] = (name, start, end, frame[2],
                                            tracer._run_id)
                elif tracer._run_id == 0:
                    tracer.raw_truncated = True

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def install(self) -> None:
        """Wrap every callable in :data:`SPANS` (idempotent per tracer)."""
        if self._undo:
            return
        for name, target in SPANS:
            module_name, _sep, path = target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _dot, attr = path.rpartition(".")
            if owner_name:
                self._patch_method(getattr(module, owner_name), attr, name)
            else:
                self._patch_function(getattr(module, attr), name)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_method(self, cls, attr: str, name: str) -> None:
        static = inspect.getattr_static(cls, attr)
        if isinstance(static, classmethod):
            wrapped = classmethod(self._wrap(name, static.__func__))
        else:
            wrapped = self._wrap(name, static)
        setattr(cls, attr, wrapped)
        self._undo.append(lambda: setattr(cls, attr, static))

    def _patch_function(self, fn: Callable, name: str) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module holding it
        (``from x import fn`` copies the reference at import time)."""
        wrapped = self._wrap(name, fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
                    self._undo.append(
                        lambda m=module, k=key: setattr(m, k, fn))

    # ------------------------------------------------------------------
    def dump(self) -> Dict:
        """JSON-ready trace: raw spans of run 0, aggregates of all."""
        return {
            "span_fields": ["name", "start", "end", "parent", "run_id"],
            "raw_spans": [list(span) for span in self.raw
                          if span is not None],
            "raw_truncated": self.raw_truncated,
            "runs": [{"label": run["label"], "root_s": run["root_s"],
                      "spans": {name: {"calls": int(e[0]),
                                       "inclusive_s": e[1],
                                       "self_s": e[2]}
                                for name, e in sorted(run["spans"].items())}}
                     for run in self.runs],
        }
