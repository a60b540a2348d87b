"""Conformance driver: schedule exploration with invariants + oracle.

This is the harness's top half.  One *check* of a circuit:

1. runs the **sequential oracle** once and digests its committed waves;
2. runs the modelled parallel machine under a sequence of controlled
   schedules — the canonical baseline, every DPOR-lite targeted swap of
   the baseline's choice points, then seeded-random exploration until
   the requested number of *distinct* interleavings (by decision
   signature) has been executed;
3. for every schedule, scans the recorded trace with the protocol
   invariant checkers and diffs the committed waves against the oracle.

Any violation, diff, or engine :class:`ProtocolError` fails the check,
and the failing schedule is **shrunk** (greedily reset decisions to the
canonical 0 while the failure persists, then drop trailing zeros) and
saved as a replayable JSON artifact — the repro recipe for the bug.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from ..analysis.diff import diff_results
from ..circuits.fsm import build_fsm
from ..circuits.iir import build_iir
from ..circuits.random_logic import build_random
from ..circuits.vhdl_text import (build_fsm_from_vhdl,
                                  build_iir_from_vhdl,
                                  build_random_behavioral)
from ..config import ConfigError, RunConfig
from ..parallel.engine import ProtocolError
from ..vhdl.kernel import SimulationResult, execute, simulate
from .invariants import (check_all, check_commit_after_gvt,
                         check_commit_monotonic_per_lp,
                         check_gvt_monotonic, check_phase_legality)
from .schedule import (DefaultScheduler, RandomScheduler, ReplayScheduler,
                       Schedule, Scheduler, swap_schedule)
from .trace import Tracer


def _forward(builder, **defaults):
    """A :data:`CIRCUITS` entry that hands its params on to a circuit
    module's ``builder`` (over ``defaults``) and returns its design.
    ``__wrapped__`` makes :func:`inspect.signature` report the
    builder's own keywords, which are the params the entry takes."""
    takes_seed = "seed" in inspect.signature(builder).parameters

    def build(seed, **p):
        args = (seed,) if takes_seed else ()
        return builder(*args, **{**defaults, **p}).design
    build.__wrapped__ = builder
    return build


#: Known circuits: name -> builder(seed, **params) returning a fresh
#: Design.  Small on purpose — a check runs the circuit dozens of
#: times.  ``params`` are builder-specific overrides: the fuzzing
#: campaign varies the random-netlist topology axes (gates, registers,
#: stimulus_bits, cycles, fanout, delays — see
#: ``repro.circuits.random_logic.TOPOLOGY_SPACE``) and the fsm size
#: (cells, cycles); an empty params dict reproduces each builder's
#: historical defaults exactly.
CIRCUITS: Dict[str, Callable[..., object]] = {
    "fsm": lambda seed, cells=4, cycles=4: build_fsm(
        cells=cells, cycles=cycles).design,
    "random": _forward(build_random, gates=10, registers=3,
                       stimulus_bits=2, cycles=3),
    # Full-size random logic (the generator's defaults): the circuit
    # class in which schedule exploration found the orphaned-
    # antimessage deadlock (seed 360472, docs/protocol.md §3.2; its
    # corpus artifact replays a crash recovery — see tests/artifacts/).
    # Expensive; meant for targeted checks and replay artifacts rather
    # than exploration.
    "random-full": _forward(build_random),
    # The paper's gate-level lattice filter: ~1.5k LPs and the design on
    # which unbounded optimism stormed on real workers (docs/protocol.md
    # §3.5).  A backend check, far too large for schedule exploration.
    "iir": _forward(build_iir),
    # Frontend-elaborated circuits: their process bodies run through
    # the VHDL interpreter (or, under ``--exec compiled``, the closure
    # programs of repro.vhdl.compile), so these are the circuits on
    # which the exec-mode axis actually bites.
    "fsm-vhdl": lambda seed, cells=4, cycles=4: build_fsm_from_vhdl(
        cells=cells, cycles=cycles),
    "iir-vhdl": lambda seed, chans=2, sections=2, width=8, cycles=8:
        build_iir_from_vhdl(chans=chans, sections=sections, width=width,
                            cycles=cycles),
    "behav": lambda seed, processes=3, cycles=8: build_random_behavioral(
        seed, processes=processes, cycles=cycles),
}


@functools.lru_cache(maxsize=None)
def circuit_params(circuit: str) -> Tuple[str, ...]:
    """The params a registered circuit's builder takes (read once per
    circuit: every checked run validates its circuit's params)."""
    return tuple(name for name
                 in inspect.signature(CIRCUITS[circuit]).parameters
                 if name != "seed")


#: The least value each circuit parameter takes (every element, for a
#: tuple such as ``delays``): below it a builder fails after it has
#: started, or builds a circuit with nothing in it to check (no cells,
#: no clock cycles, no stimulus).
PARAM_MINIMUMS: Dict[str, int] = {
    "cells": 2, "cycles": 1, "chans": 1, "sections": 1, "width": 1,
    "processes": 1, "gates": 1, "registers": 1, "stimulus_bits": 1,
    "fanout": 1, "period_fs": 2, "extra_cycles": 0, "delays": 0}


def refuse_params(circuit: str, params: Optional[Dict]) -> None:
    """Raise :class:`~repro.config.ConfigError` unless ``circuit`` is
    registered, its builder takes every name in ``params``, and no value
    is below its :data:`PARAM_MINIMUMS` entry."""
    if circuit not in CIRCUITS:
        raise ConfigError(f"unknown circuit {circuit!r}; choose from "
                          f"{', '.join(CIRCUITS)}")
    takes = circuit_params(circuit)
    unknown = sorted(set(params or ()) - set(takes))
    if unknown:
        raise ConfigError(f"circuit {circuit!r} takes no parameter "
                          f"{', '.join(unknown)}; it takes "
                          f"{', '.join(takes)}")
    for name, value in (params or {}).items():
        least = PARAM_MINIMUMS.get(name)
        values = value if isinstance(value, tuple) else (value,)
        if least is not None and any(isinstance(v, int) and v < least
                                     for v in values):
            raise ConfigError(f"circuit {circuit!r} takes {name} of at "
                              f"least {least}, got {value}")


def build_circuit(circuit: str, seed: int,
                  params: Optional[Dict] = None):
    """Build a fresh Design for a registered circuit (shared by the
    CLI, the conformance checker and the fuzzing campaign)."""
    refuse_params(circuit, params)
    return CIRCUITS[circuit](seed, **(params or {}))


#: Bounded LRU memo of circuit snapshots for artifact reuse, keyed by
#: the build *inputs* (circuit, seed, canonical params) — a hit is
#: exactly a call that would have rebuilt the same design.
_ARTIFACT_MEMO: Dict[str, object] = {}
_ARTIFACT_MEMO_CAP = 64
_ARTIFACT_LOCK = threading.Lock()


def circuit_artifact(circuit: str, seed: int,
                     params: Optional[Dict] = None):
    """Snapshot a registered circuit once; reuse it across runs.

    Returns the memoized :class:`~repro.vhdl.artifact.DesignArtifact`
    for ``(circuit, seed, params)``, building and snapshotting the
    design on first use.  Callers ``instantiate()`` a fresh runtime
    per run, so build cost is paid once per distinct configuration
    instead of once per run — the Checker runs one circuit dozens of
    times per exploration, and :func:`check_backend` runs it twice
    (oracle + backend) per differential check.
    """
    from ..vhdl.artifact import canonical_digest

    key = canonical_digest({"circuit": circuit, "seed": seed,
                            "params": params or {}})
    with _ARTIFACT_LOCK:
        artifact = _ARTIFACT_MEMO.pop(key, None)
        if artifact is not None:
            _ARTIFACT_MEMO[key] = artifact
            return artifact
    built = build_circuit(circuit, seed, params).artifact()
    with _ARTIFACT_LOCK:
        artifact = _ARTIFACT_MEMO.pop(key, built)
        _ARTIFACT_MEMO[key] = artifact
        while len(_ARTIFACT_MEMO) > _ARTIFACT_MEMO_CAP:
            _ARTIFACT_MEMO.pop(next(iter(_ARTIFACT_MEMO)))
    return artifact

#: Livelock guard for controlled runs (a pathological schedule must
#: fail loudly, not hang the exploration).
MAX_STEPS = 400_000


def wave_digest(result: SimulationResult) -> str:
    """Canonical digest of the committed waves (order-independent)."""
    digest = hashlib.sha256()
    for name in sorted(result.traces):
        digest.update(name.encode())
        for time, value in result.traces[name]:
            digest.update(f"{time[0]},{time[1]},{value!s};".encode())
    return digest.hexdigest()


@dataclass
class RunReport:
    """Outcome of one controlled schedule."""

    label: str
    signature: Tuple[Tuple[int, int], ...]
    decisions: List[int]
    ncands: List[int]
    violations: List[str]
    digest: Optional[str] = None
    #: Forensics of a diagnosed stall (repro.resilience.StallReport),
    #: when the run failed with one — triage folds its shape into the
    #: failure signature.
    stall_report: Optional[object] = None
    #: Content hash of the recorded protocol trace (empty when the run
    #: was not traced); see :meth:`repro.harness.trace.Tracer.fingerprint`.
    trace_fingerprint: str = ""
    #: The run's statistics (None when the engine raised without
    #: partial stats) — the campaign folds these with RunStats.merge.
    stats: Optional[object] = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CheckReport:
    """Outcome of one circuit's exploration."""

    config: RunConfig
    oracle_digest: str = ""
    runs: List[RunReport] = field(default_factory=list)
    #: Paths of shrunk failing-schedule artifacts written to disk.
    artifacts: List[str] = field(default_factory=list)

    @property
    def distinct(self) -> int:
        return len({run.signature for run in self.runs})

    @property
    def failures(self) -> List[RunReport]:
        return [run for run in self.runs if not run.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAIL ({len(self.failures)} bad)"
        return (f"{self.config.circuit}: {len(self.runs)} schedules, "
                f"{self.distinct} distinct interleavings, {status}")


class Checker:
    """Explores schedules of one circuit and checks each one.

    ``circuit`` names a registered circuit and the keywords after it
    describe the run, or it is the whole run, a modelled-machine
    :class:`~repro.config.RunConfig` of a registered circuit, and those
    keywords are not read.  Raises :class:`~repro.config.ConfigError`
    for a run no backend can run.
    """

    def __init__(self, circuit: Union[str, RunConfig],
                 circuit_seed: int = 0,
                 processors: int = 2, protocol: str = "dynamic",
                 until: Optional[int] = None,
                 artifact_dir: Optional[str] = None,
                 max_steps: int = MAX_STEPS,
                 watchdog: Optional[int] = None,
                 circuit_params: Optional[Dict] = None,
                 fault_plan=None, exec_mode: str = "interp",
                 reuse_artifact: bool = False) -> None:
        if not isinstance(circuit, RunConfig):
            circuit = RunConfig(
                circuit=circuit, circuit_seed=circuit_seed,
                processors=processors, protocol=protocol, until=until,
                watchdog=watchdog, circuit_params=circuit_params or {},
                fault_plan=fault_plan, exec_mode=exec_mode)
        #: The checked runs.  The oracle always interprets: it is the
        #: reference semantics, so a compiled-mode check is also a
        #: differential compiler test (any lowering bug shows up as an
        #: oracle diff).
        self.config = circuit.validate()
        self.artifact_dir = artifact_dir
        self.max_steps = max_steps
        #: Amortize the circuit build: snapshot once, instantiate a
        #: fresh runtime per schedule instead of rebuilding the design
        #: for every run of the exploration.
        self.reuse_artifact = reuse_artifact
        self._oracle: Optional[SimulationResult] = None
        self.oracle_digest = ""

    # ------------------------------------------------------------------
    # Primitive runs
    # ------------------------------------------------------------------
    def oracle(self) -> SimulationResult:
        if self._oracle is None:
            self._oracle = simulate(
                fresh_design(self.config, self.reuse_artifact),
                until=self.config.until)
            self.oracle_digest = wave_digest(self._oracle)
        return self._oracle

    def run_schedule(self, scheduler: Scheduler,
                     label: str) -> RunReport:
        """One controlled parallel run, fully checked."""
        tracer = Tracer()
        violations: List[str] = []
        stall_report = None
        result: Optional[SimulationResult] = None
        try:
            result = execute(fresh_design(self.config, self.reuse_artifact),
                             self.config, tracer=tracer, scheduler=scheduler,
                             max_steps=self.max_steps)
        except ProtocolError as failure:
            violations.append(f"protocol-error: {failure}")
            stall_report = getattr(failure, "stall_report", None)
            stats = getattr(failure, "partial_stats", None)
            # The trace up to the failure still obeys the prefix-closed
            # safety laws — scan it so a run that e.g. committed out of
            # order *and then* stalled is triaged by the ordering bug,
            # not by its secondary liveness symptom.  (The stats-balance
            # and termination-scoped invariants assume a completed run
            # and are skipped here.)
            violations.extend(check_gvt_monotonic(tracer))
            violations.extend(check_commit_after_gvt(tracer))
            violations.extend(check_commit_monotonic_per_lp(tracer))
            violations.extend(check_phase_legality(tracer))
        else:
            stats = None
        digest = None
        if result is not None:
            stats = result.stats
            violations.extend(check_all(tracer, result.stats))
            report = diff_results(self.oracle(), result)
            if not report.identical:
                violations.append(
                    "oracle-diff: committed waves differ from the "
                    f"sequential engine ({report.summary()})")
            digest = wave_digest(result)
        if isinstance(scheduler, ReplayScheduler) \
                and scheduler.divergences:
            violations.append(
                f"replay-divergence: {scheduler.divergences} decision "
                f"points did not match the recording")
        return RunReport(label=label, signature=scheduler.signature,
                         decisions=scheduler.decisions,
                         ncands=scheduler.ncands,
                         violations=violations, digest=digest,
                         stall_report=stall_report,
                         trace_fingerprint=tracer.fingerprint(),
                         stats=stats)

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------
    def explore(self, schedules: int = 25, seed: int = 0) -> CheckReport:
        """Run >= ``schedules`` distinct interleavings (if they exist).

        Order: canonical baseline, DPOR-lite targeted swaps (first
        divergence at every multi-candidate choice point), then
        seeded-random schedules until the distinct-signature target is
        met or an attempt budget runs out.
        """
        report = CheckReport(self.config)
        self.oracle()
        report.oracle_digest = self.oracle_digest
        seen: Set[Tuple[Tuple[int, int], ...]] = set()

        def note(run: RunReport) -> None:
            report.runs.append(run)
            seen.add(run.signature)
            if not run.ok:
                self._dump_failure(run, report)

        baseline = self.run_schedule(DefaultScheduler(), "baseline")
        note(baseline)
        # DPOR-lite: diverge once at every choice point of the baseline.
        # Capped at half the budget — the other half goes to seeded
        # random schedules, which diverge at *every* point at once and
        # catch ordering bugs a single first divergence can mask (an
        # optimistic engine self-heals one missequenced event through
        # the very rollback machinery under test).
        swap_target = max(1 + schedules // 2, schedules - 16)
        for point, (ncand, _chosen) in enumerate(baseline.signature):
            if len(seen) >= swap_target:
                break
            for alternative in range(1, ncand):
                if len(seen) >= swap_target:
                    break
                decisions = swap_schedule(point, alternative)
                run = self.run_schedule(
                    ReplayScheduler(decisions),
                    f"swap@{point}={alternative}")
                note(run)
        # Seeded-random exploration up to the distinct target.
        attempts = 0
        budget = max(4 * schedules, schedules + 16)
        rng_seed = seed
        while len(seen) < schedules and attempts < budget:
            attempts += 1
            rng_seed += 1
            run = self.run_schedule(RandomScheduler(rng_seed),
                                    f"random#{rng_seed}")
            note(run)
        return report

    # ------------------------------------------------------------------
    # Failure artifacts
    # ------------------------------------------------------------------
    def _still_fails(self, decisions: List[int]) -> bool:
        """Does this decision list still reproduce a *real* failure?

        Replay divergences are excluded: shrinking edits the decision
        list, so clamped choices are expected noise, and an artifact
        that only diverges (without violating an invariant or the
        oracle) is not a reproduction of the bug.
        """
        run = self.run_schedule(ReplayScheduler(decisions), "shrink-probe")
        return any(not v.startswith("replay-divergence")
                   for v in run.violations)

    def shrink(self, decisions: List[int],
               budget: int = 48) -> List[int]:
        """Delta-debugging-style minimization of a failing decision list.

        Three passes, each verified by re-running the schedule:

        1. binary-search the shortest failing *prefix* (the replayer
           pads with the canonical 0 after exhaustion);
        2. reset chunks of decisions to 0, halving the chunk size;
        3. drop trailing zeros.

        Budget-capped: each probe is one full controlled run.
        """
        current = [d for d in decisions]
        # Pass 1: shortest failing prefix.
        lo, hi = 0, len(current)
        while lo < hi and budget > 0:
            mid = (lo + hi) // 2
            budget -= 1
            if self._still_fails(current[:mid]):
                hi = mid
            else:
                lo = mid + 1
        current = current[:hi]
        # Pass 2: zero out chunks, halving the chunk size.
        chunk = max(1, len(current) // 2)
        while chunk >= 1 and budget > 0:
            start = 0
            while start < len(current) and budget > 0:
                if any(current[start:start + chunk]):
                    trial = list(current)
                    trial[start:start + chunk] = [0] * len(
                        trial[start:start + chunk])
                    budget -= 1
                    if self._still_fails(trial):
                        current = trial
                start += chunk
            if chunk == 1:
                break
            chunk //= 2
        while current and current[-1] == 0:
            current.pop()
        return current

    def _dump_failure(self, run: RunReport,
                      report: CheckReport) -> None:
        if self.artifact_dir is None:
            return
        os.makedirs(self.artifact_dir, exist_ok=True)
        # Only the first artifact pays for shrinking (it is the repro
        # recipe); later failures are saved verbatim.
        decisions = self.shrink(run.decisions) if not report.artifacts \
            else list(run.decisions)
        index = len(report.artifacts)
        path = os.path.join(self.artifact_dir,
                            f"fail-{self.config.circuit}-{index}.json")
        Schedule(self.config, decisions, label=run.label,
                 violations=run.violations,
                 wave_digest=self.oracle_digest).save(path)
        report.artifacts.append(path)

    # ------------------------------------------------------------------
    # Record / replay
    # ------------------------------------------------------------------
    def record(self) -> Tuple[Schedule, RunReport]:
        """Run the canonical schedule and package it as an artifact."""
        run = self.run_schedule(DefaultScheduler(), "recorded")
        return Schedule(self.config, run.decisions, run.ncands,
                        run.label, run.digest, run.violations), run


def replay_schedule(schedule: Schedule,
                    exec_mode: Optional[str] = None) -> RunReport:
    """Re-execute a schedule artifact and verify it reproduces itself.

    ``exec_mode`` overrides the artifact's recorded mode — replaying a
    corpus under ``"compiled"`` re-proves every archived bug repro (and
    its wave digest) against the closure programs.
    """
    config = schedule.config
    if exec_mode is not None:
        config = replace(config, exec_mode=exec_mode)
    run = Checker(config).run_schedule(schedule.replayer(), "replay")
    if schedule.wave_digest and run.digest \
            and run.digest != schedule.wave_digest:
        run.violations.append(
            f"replay-digest: waves {run.digest[:12]}... differ from the "
            f"recorded {schedule.wave_digest[:12]}...")
    return run


def fresh_design(config: RunConfig, reuse_artifact: bool = False):
    """A fresh runtime of ``config``'s circuit: instantiated from its
    memoized snapshot (:func:`circuit_artifact`) or built anew."""
    if reuse_artifact:
        return circuit_artifact(config.circuit, config.circuit_seed,
                                config.params()).instantiate()
    return CIRCUITS[config.circuit](config.circuit_seed, **config.params())


def check_backend(config: RunConfig,
                  reuse_artifact: bool = False) -> RunReport:
    """Differential oracle for the *real* backends (threads / procs /
    dist): ``config`` is a ring run of a registered circuit.

    The schedule-exploration machinery above drives the modelled
    machine, whose interleavings the harness controls.  The threads,
    procs and dist backends schedule on their own — threads workers
    take turns in a fixed order, the OS (and for dist, the network)
    picks the interleaving of the others — so the strongest repeatable
    check is differential:
    run the circuit once on the sequential oracle, once on the real
    backend, and require **byte-identical committed waves** (same
    digest, empty diff).  Every invocation exercises whatever
    interleaving the machine happened to produce, so repeated CI runs
    accumulate schedule coverage for free.

    Returns a :class:`RunReport` whose ``violations`` list is empty on
    success; ``decisions``/``ncands`` are empty (no controlled
    schedule exists for a real run).  Raises
    :class:`~repro.config.ConfigError` for a run no backend can run.
    """
    config.validate()
    oracle = simulate(fresh_design(config, reuse_artifact),
                      until=config.until)
    oracle_digest = wave_digest(oracle)
    label = f"{config.backend}/{config.protocol}/{config.exec_mode}"
    violations: List[str] = []
    stall_report = None
    result: Optional[SimulationResult] = None
    try:
        result = execute(fresh_design(config, reuse_artifact), config)
    except ProtocolError as failure:
        violations.append(f"protocol-error: {failure}")
        stall_report = getattr(failure, "stall_report", None)
    digest = None
    stats = result.stats if result is not None else None
    if result is not None:
        report = diff_results(oracle, result)
        if not report.identical:
            violations.append(
                "oracle-diff: committed waves differ from the "
                f"sequential engine ({report.summary()})")
        digest = wave_digest(result)
        if digest != oracle_digest:
            violations.append(
                f"digest-mismatch: {digest[:12]}... vs oracle "
                f"{oracle_digest[:12]}...")
        if result.stats.events_committed != oracle.stats.events_committed:
            violations.append(
                f"commit-count: {result.stats.events_committed} vs "
                f"oracle {oracle.stats.events_committed}")
    return RunReport(label=label, signature=(), decisions=[],
                     ncands=[], violations=violations, digest=digest,
                     stall_report=stall_report, stats=stats)
