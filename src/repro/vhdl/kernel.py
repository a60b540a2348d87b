"""The distributed VHDL kernel: run a Design under any engine.

This is the top of the public API: build a :class:`~repro.vhdl.design.Design`,
then ``simulate(design, until=...)`` with the engine and protocol of your
choice.  Every engine produces the same committed results; they differ in
how they synchronize (and, on the modelled parallel machine, in the
parallel run time they report).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Dict, List, Optional, Tuple

from ..config import EXEC_MODES, RunConfig
from ..core.sequential import SequentialSimulator
from ..core.stats import RunStats
from ..core.vtime import VirtualTime
from .artifact import DesignArtifact
from .design import Design


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    stats: RunStats
    #: Signal name -> committed effective-value change history.
    traces: Dict[str, List[Tuple[VirtualTime, Any]]]
    #: Signal name -> final effective value.
    finals: Dict[str, Any]
    #: Signal name -> declared initial value (time-zero state for
    #: waveform rendering/VCD).
    initials: Dict[str, Any] = None  # type: ignore[assignment]
    #: Modelled parallel run time in cost units (None for sequential).
    parallel_time: Optional[float] = None
    #: Number of processors used (1 for sequential).
    processors: int = 1

    def trace(self, name: str) -> List[Tuple[VirtualTime, Any]]:
        return self.traces[name]

    def value(self, name: str) -> Any:
        return self.finals[name]

    def waveform_chars(self, name: str) -> str:
        """Compact rendering of a scalar trace, e.g. ``"01010"``."""
        return "".join(getattr(v, "char", str(v))
                       for _, v in self.traces[name])


def _collect(design: Design, stats: RunStats,
             parallel_time: Optional[float] = None,
             processors: int = 1) -> SimulationResult:
    traces = {s.name: s.trace() for s in design.signals if s.traced}
    finals = {s.name: s.effective for s in design.signals}
    initials = {s.name: s.initial for s in design.signals}
    return SimulationResult(stats=stats, traces=traces, finals=finals,
                            initials=initials,
                            parallel_time=parallel_time,
                            processors=processors)


def _claim(design) -> Design:
    """Claim a single-use runtime for this run.

    A :class:`~repro.vhdl.artifact.DesignArtifact` is immutable and
    reusable: every call instantiates a *fresh* Design, so the same
    artifact may be simulated any number of times.  A plain ``Design``
    carries mutable LP state and is single-use — a second run raises
    (snapshot to an artifact via ``design.artifact()`` to re-run).
    """
    if isinstance(design, DesignArtifact):
        design = design.instantiate()
    if getattr(design, "_simulated", False):
        raise RuntimeError(
            f"design {design.name!r} was already simulated; a Design is "
            f"single-use (LP state is mutated by simulation).  Snapshot "
            f"it with design.artifact() and instantiate() a fresh "
            f"runtime per run, or rebuild the Design.")
    design._simulated = True
    return design


def _lower(design: Design, exec_mode: str) -> None:
    """Apply the selected execution mode (one of
    :data:`~repro.config.EXEC_MODES`) to ``design``'s processes."""
    if exec_mode not in EXEC_MODES:
        raise ValueError(f"unknown exec mode {exec_mode!r}; pick from "
                         f"{EXEC_MODES}")
    if exec_mode == "compiled":
        from .compile import lower_design
        lower_design(design)


def simulate(design, until: Optional[int] = None,
             max_events: Optional[int] = None,
             shuffle_ties=None, exec_mode: str = "interp") -> SimulationResult:
    """Run ``design`` on the sequential reference engine.

    ``until`` is in femtoseconds; events *at* that time still execute.
    ``shuffle_ties`` randomizes the order of simultaneous events (the
    results must not depend on it; see the property tests).
    ``exec_mode`` selects interpreted or compiled process bodies (see
    :data:`EXEC_MODES`); both commit bit-identical results.

    ``design`` may also be a :class:`~repro.vhdl.artifact.DesignArtifact`
    — a fresh runtime is instantiated per call, so artifacts are
    re-runnable.
    """
    design = _claim(design)
    _lower(design, exec_mode)
    model = design.elaborate()
    sim = SequentialSimulator(model, shuffle_ties=shuffle_ties)
    stats = sim.run(until=until, max_events=max_events)
    return _collect(design, stats)


#: Backend -> (module of ``repro.parallel``, its runner); a backend's
#: module is imported when a run first asks for it.
_RUNNERS = {
    "model": ("machine", "run_parallel"),
    "threads": ("threads", "run_threaded"),
    "procs": ("procs", "run_procs"),
    "dist": ("dist", "run_dist"),
}

#: Parallel execution backends selectable by :func:`simulate_parallel`.
BACKENDS = tuple(_RUNNERS)


def simulate_parallel(design, processors: int,
                      until: Optional[int] = None,
                      protocol: str = "dynamic",
                      backend: str = "model",
                      exec_mode: str = "interp",
                      **machine_kwargs: Any) -> SimulationResult:
    """Run ``design`` on a parallel backend.

    ``protocol`` selects the synchronization configuration:

    * ``"optimistic"``   — every LP runs Time Warp;
    * ``"conservative"`` — every LP blocks until safe (lookahead-free,
      with global deadlock recovery);
    * ``"mixed"``        — the paper's static heuristic: clocked/register
      LPs conservative, the rest optimistic;
    * ``"dynamic"``      — LPs self-adapt between the modes at runtime
      (``"model"`` backend only).

    ``backend`` selects the machine the protocols execute on:

    * ``"model"``   — the deterministic modelled multiprocessor; its
      ``parallel_time`` is the modelled makespan, and speedup against a
      1-processor run reproduces the paper's speedup figures;
    * ``"threads"`` — the worker loop of ``"procs"``, its workers
      taking turns in one thread (in-process inboxes, nothing pickled,
      deterministic);
    * ``"procs"``   — real parallelism on ``multiprocessing`` workers
      with batched IPC and token-ring GVT; the only backend that can
      show wall-clock speedup under CPython's GIL;
    * ``"dist"``    — the same worker loop on standalone processes
      over asyncio/TCP (same host or remote via ``hosts=[...]``); the
      distributed tier of the paper's title.

    All backends commit identical results; they differ in how they
    synchronize and in which cost figure (modelled makespan vs. wall
    clock) is meaningful.  ``exec_mode`` selects interpreted or
    compiled process bodies (see :data:`EXEC_MODES`); compiled frames
    are picklable, so rollback and procs checkpointing work unchanged.

    ``design`` may also be a :class:`~repro.vhdl.artifact.DesignArtifact`
    (a fresh runtime is instantiated per call).  On the procs backend
    ``start_method="fork"|"spawn"|"forkserver"`` (via
    ``machine_kwargs``) selects how workers are started; under spawn
    the workers rebuild their machines from the pickled pristine
    model instead of fork-inheriting it.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; pick from "
                         f"{BACKENDS}")
    design = _claim(design)
    _lower(design, exec_mode)
    model = design.elaborate()
    module, runner = _RUNNERS[backend]
    run = getattr(import_module(f"..parallel.{module}", __package__), runner)
    outcome = run(model, processors=processors, until=until,
                  protocol=protocol, **machine_kwargs)
    # Only the modelled machine has a makespan.
    return _collect(design, outcome.stats,
                    parallel_time=getattr(outcome, "makespan", None),
                    processors=processors)


def execute(design, config: RunConfig, **hooks: Any) -> SimulationResult:
    """Run ``design`` as ``config`` describes, on the sequential engine
    (backend ``"seq"``) or a parallel one.  ``hooks`` are the modelled
    machine's harness keywords (``tracer``, ``scheduler``,
    ``max_steps``).  The engines raise what they cannot run;
    :meth:`RunConfig.validate` says it before any work."""
    if config.backend == "seq":
        return simulate(design, until=config.until,
                        exec_mode=config.exec_mode)
    return simulate_parallel(design, config.processors,
                             until=config.until, protocol=config.protocol,
                             backend=config.backend,
                             exec_mode=config.exec_mode,
                             **config.machine_kwargs(), **hooks)
