"""The campaign loop: budgeted scenario execution, triage, corpus.

One scenario runs through the strongest check its backend supports:

* **model** — a controlled run (canonical or seeded-random schedule)
  on the modelled multiprocessor via :class:`repro.harness.Checker`:
  full trace-invariant scan plus the differential oracle.  Failures
  are shrunk with the harness's delta-debugging shrinker — the corpus
  stores a *minimal* replayable schedule, not the noisy original;
* **threads / procs** — a differential run via
  :func:`repro.harness.check_backend`: the backend picks the
  interleaving (threads workers take turns in a fixed order, the OS
  picks for procs), the committed waves must be byte-identical to the sequential
  engine's.  No controlled schedule exists, so failures are recorded
  verbatim (the scenario itself — circuit seed, topology, fault
  plan — is the repro recipe).

The campaign runs scenarios until its wall-clock budget or scenario
cap is exhausted, folds every run's statistics into one
:class:`~repro.core.stats.RunStats` via ``merge``, and deduplicates
failures by :func:`~repro.campaign.triage.classify` signature against
the corpus.

Scenarios share nothing, so on a host with more than one usable core
they run on one worker process per core (:class:`_Workers`), at most
two per worker in flight.  Their outcomes come back in generation
order, and everything order-sensitive — the summary, triage, the
corpus, shrinking, ``on_scenario`` — stays in this process, so a
deterministic space yields the same summary either way.  One usable
core (``taskset -c 0 repro fuzz ...``) runs the scenarios in process.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from collections import Counter, deque
from contextlib import closing
from dataclasses import dataclass, field
from multiprocessing import connection, get_context
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..core.stats import RunStats
from ..harness.check import Checker, RunReport, check_backend
from ..harness.schedule import (DefaultScheduler, RandomScheduler,
                                ReplayScheduler, Schedule)
from ..parallel.procs import resolve_start_method
from .axes import (CAMPAIGN_MAX_STEPS, CAMPAIGN_STEPS_PER_EVENT, Scenario,
                   ScenarioSpace)
from .corpus import Corpus
from .triage import FailureSignature, classify

#: Probe budget for shrinking one failure (each probe is a full
#: controlled run; campaign shrinks must not eat the whole campaign).
SHRINK_BUDGET = 32


@dataclass
class ScenarioOutcome:
    """One executed scenario plus its harness verdict."""

    scenario: Scenario
    report: RunReport
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.report.ok


def _checker(scenario: Scenario) -> Checker:
    # Fuzzing amortizes elaboration: each scenario's circuit is
    # snapshotted once and every run (oracle + schedules, or oracle +
    # backend) instantiates a fresh runtime from the shared artifact.
    checker = Checker(scenario, reuse_artifact=True)
    checker.max_steps = max(CAMPAIGN_MAX_STEPS, CAMPAIGN_STEPS_PER_EVENT
                            * checker.oracle().stats.events_committed)
    return checker


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Execute one scenario through its backend's strongest check."""
    started = time.monotonic()
    if scenario.backend == "model":
        scheduler = (DefaultScheduler() if scenario.schedule_seed is None
                     else RandomScheduler(scenario.schedule_seed))
        label = ("baseline" if scenario.schedule_seed is None
                 else f"random#{scenario.schedule_seed}")
        report = _checker(scenario).run_schedule(scheduler, label)
    else:
        report = check_backend(scenario, reuse_artifact=True)
    return ScenarioOutcome(scenario=scenario, report=report,
                           duration_s=time.monotonic() - started)


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve(conn, inherited: list) -> None:
    """A campaign worker: run each scenario it receives and send back
    its outcome, or the exception it raised, in the order received.
    ``inherited`` are the campaign's pipe ends this process must close.
    """
    # Its own process group, so that teardown also reaches the ring
    # processes and dist daemons its scenarios start.
    os.setpgid(0, 0)
    for end in inherited:
        end.close()
    try:
        while True:
            scenario = conn.recv()
            try:
                reply = run_scenario(scenario)
            except Exception as exc:
                # Raised in the campaign's process, with this traceback.
                exc.add_note("".join(traceback.format_exception(exc)))
                reply = exc
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the campaign has gone


def _kill_group(process) -> None:
    """SIGKILL a live (or unreaped) worker and its process group."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except OSError:
        pass  # killed before it made its group: nothing else to reach
    process.kill()


class _Workers:
    """One worker process per core, fed through one pipe each.

    Workers are not daemonic: a ring scenario starts processes of its
    own.  :meth:`close` kills every worker's process group and reaps
    the workers without waiting for what they run.
    """

    def __init__(self, count: int) -> None:
        method = resolve_start_method()
        context = get_context(method)
        self.processes = []
        self.conns = []
        try:
            for _ in range(count):
                conn, child_end = context.Pipe()
                self.conns.append(conn)
                # A forked worker inherits this side's ends and closes
                # them, so that it reads EOF once this process is gone.
                inherited = list(self.conns) if method == "fork" else []
                process = context.Process(target=_serve,
                                          args=(child_end, inherited),
                                          name="repro-campaign-worker")
                self.processes.append(process)
                process.start()
                child_end.close()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for process in self.processes:
            if process.pid is not None and process.exitcode is None:
                _kill_group(process)
        for process in self.processes:
            if process.pid is not None:
                process.join()
        for conn in self.conns:
            conn.close()

    def outcomes(self, scenarios: Iterator[Scenario],
                 window: int) -> Iterator[ScenarioOutcome]:
        """Run ``scenarios`` with at most ``window`` outcomes not yet
        taken, and yield the outcomes in the order of ``scenarios``.

        A scenario's exception is raised at its turn; a worker that
        dies raises ``RuntimeError``.  The next scenario is drawn only
        when the window has room for it.
        """
        queued = [deque() for _ in self.processes]
        replies: Dict[int, object] = {}
        sent = taken = 0
        for scenario in scenarios:
            index = min(range(len(queued)), key=lambda i: len(queued[i]))
            self.conns[index].send(scenario)
            queued[index].append((sent, scenario))
            sent += 1
            while sent - taken >= window or taken in replies:
                yield self._take(taken, queued, replies)
                taken += 1
        while taken < sent:
            yield self._take(taken, queued, replies)
            taken += 1

    def _take(self, number: int, queued, replies) -> ScenarioOutcome:
        """Scenario ``number``'s outcome, receiving until it is in."""
        while number not in replies:
            busy = [i for i, waiting in enumerate(queued) if waiting]
            ready = connection.wait(
                [self.conns[i] for i in busy]
                + [self.processes[i].sentinel for i in busy])
            for i in busy:
                conn, process = self.conns[i], self.processes[i]
                try:
                    while queued[i] and conn.poll():
                        replies[queued[i][0][0]] = conn.recv()
                        queued[i].popleft()
                    lost = bool(queued[i]) and process.sentinel in ready
                except (EOFError, OSError):
                    lost = True
                if lost:
                    _kill_group(process)
                    process.join()
                    raise RuntimeError(
                        f"campaign worker {process.pid} died (exit code "
                        f"{process.exitcode}) running "
                        f"{queued[i][0][1].describe()}")
        reply = replies.pop(number)
        if isinstance(reply, BaseException):
            raise reply
        return reply


@dataclass
class CampaignSummary:
    """Aggregated result of one fuzzing campaign."""

    scenarios: int = 0
    failures: int = 0
    elapsed_s: float = 0.0
    #: Distinct scenario keys executed (the ISSUE's coverage floor
    #: counts these, not raw iterations).
    distinct: Set[Tuple] = field(default_factory=set)
    #: Runs per (backend, protocol) coverage cell.
    coverage: Counter = field(default_factory=Counter)
    #: Failing runs per deduplicated signature (includes signatures
    #: the corpus had already seen).
    signatures: Dict[FailureSignature, int] = field(default_factory=dict)
    #: Artifact paths newly written to the corpus this campaign.
    new_artifacts: List[str] = field(default_factory=list)
    #: Every run's engine statistics folded with ``RunStats.merge``.
    stats: RunStats = field(default_factory=RunStats)
    #: Processes the scenarios ran on (1: in this process).
    workers: int = 1

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def note(self, outcome: ScenarioOutcome) -> None:
        self.scenarios += 1
        self.distinct.add(outcome.scenario.key())
        self.coverage[(outcome.scenario.backend,
                       outcome.scenario.protocol)] += 1
        if outcome.report.stats is not None:
            self.stats.merge(outcome.report.stats)
        if not outcome.ok:
            self.failures += 1

    def describe(self) -> str:
        rate = self.scenarios / self.elapsed_s if self.elapsed_s else 0.0
        where = ("in process" if self.workers == 1
                 else f"on {self.workers} worker processes")
        lines = [
            f"campaign: {self.scenarios} scenarios "
            f"({len(self.distinct)} distinct) in {self.elapsed_s:.1f}s "
            f"{where} ({rate:.1f} scenarios/s), "
            + ("all clean" if self.ok
               else f"{self.failures} failing "
                    f"({len(self.signatures)} distinct signature(s))")]
        cells = sorted(self.coverage)
        lines.append("  coverage : " + " ".join(
            f"{backend}/{protocol}={self.coverage[(backend, protocol)]}"
            for backend, protocol in cells))
        lines.append(f"  events   : {self.stats.summary()}")
        if self.stats.fabric_sent:
            lines.append(f"  fabric   : {self.stats.fabric_summary()}")
        for signature, count in sorted(
                self.signatures.items(), key=lambda kv: -kv[1]):
            lines.append(f"  FAILURE  : {signature.describe()} "
                         f"x{count}")
        for path in self.new_artifacts:
            lines.append(f"  artifact : {path}")
        return "\n".join(lines)


class Campaign:
    """Budgeted fuzzing loop over a :class:`ScenarioSpace`."""

    def __init__(self, space: ScenarioSpace, budget_s: float = 60.0,
                 max_scenarios: Optional[int] = None,
                 corpus: Optional[Corpus] = None,
                 on_scenario: Optional[Callable] = None) -> None:
        self.space = space
        self.budget_s = budget_s
        self.max_scenarios = max_scenarios
        self.corpus = corpus
        self.on_scenario = on_scenario

    # ------------------------------------------------------------------
    def _shrink_and_record(self, outcome: ScenarioOutcome,
                           signature: FailureSignature,
                           summary: CampaignSummary) -> None:
        """Minimize a *new* failure and persist it to the corpus."""
        scenario = outcome.scenario
        report = outcome.report
        shrunk = False
        decisions = list(report.decisions)
        fingerprint = report.trace_fingerprint
        violations = list(report.violations)
        # Shrinking replays the scenario dozens of times, so it is
        # reserved for fast failures: a diagnosed livelock runs to the
        # watchdog bound on *every* probe and would eat the whole
        # campaign budget for one artifact.
        checker = _checker(scenario)
        if scenario.backend == "model" and decisions \
                and outcome.duration_s < 1.0:
            decisions = checker.shrink(decisions, budget=SHRINK_BUDGET)
            replay = checker.run_schedule(
                ReplayScheduler(decisions), "shrunk-replay")
            if not replay.ok:
                shrunk = True
                fingerprint = replay.trace_fingerprint
                violations = list(replay.violations)
            else:  # over-shrunk (flaky failure): keep the original
                decisions = list(report.decisions)
        path = self.corpus.record(
            signature,
            Schedule(scenario, decisions, label=report.label,
                     violations=violations),
            scenario, trace_fingerprint=fingerprint, shrunk=shrunk)
        summary.new_artifacts.append(path)

    def _admitted(self, started: float) -> Iterator[Scenario]:
        """The scenario stream, cut by the budget and the scenario cap
        (both checked before each scenario is drawn)."""
        count = 0
        for scenario in self.space.generate():
            if time.monotonic() - started >= self.budget_s:
                return
            if self.max_scenarios is not None \
                    and count >= self.max_scenarios:
                return
            count += 1
            yield scenario

    def _outcomes(self, started: float,
                  workers: int) -> Iterator[ScenarioOutcome]:
        """Every admitted scenario's outcome, in generation order: in
        this process with one worker, otherwise from worker processes
        that are gone when the stream closes or raises."""
        scenarios = self._admitted(started)
        if workers == 1:
            for scenario in scenarios:
                yield run_scenario(scenario)
            return
        pool = _Workers(workers)
        try:
            yield from pool.outcomes(scenarios, window=2 * workers)
        finally:
            pool.close()

    def run(self) -> CampaignSummary:
        started = time.monotonic()
        workers = _usable_cores()
        if self.max_scenarios is not None:
            workers = max(1, min(workers, self.max_scenarios))
        summary = CampaignSummary(workers=workers)
        with closing(self._outcomes(started, workers)) as outcomes:
            for outcome in outcomes:
                summary.note(outcome)
                if not outcome.ok:
                    signature = classify(outcome.report)
                    summary.signatures[signature] = \
                        summary.signatures.get(signature, 0) + 1
                    if self.corpus is not None \
                            and not self.corpus.seen(signature):
                        self._shrink_and_record(outcome, signature,
                                                summary)
                if self.on_scenario is not None:
                    self.on_scenario(outcome, summary)
        summary.elapsed_s = time.monotonic() - started
        return summary
