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
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.stats import RunStats
from ..harness.check import Checker, RunReport, check_backend
from ..harness.schedule import (DefaultScheduler, RandomScheduler,
                                ReplayScheduler, Schedule)
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
        lines = [
            f"campaign: {self.scenarios} scenarios "
            f"({len(self.distinct)} distinct) in {self.elapsed_s:.1f}s, "
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

    def run(self) -> CampaignSummary:
        summary = CampaignSummary()
        started = time.monotonic()
        for scenario in self.space.generate():
            if time.monotonic() - started >= self.budget_s:
                break
            if self.max_scenarios is not None \
                    and summary.scenarios >= self.max_scenarios:
                break
            outcome = run_scenario(scenario)
            summary.note(outcome)
            if not outcome.ok:
                signature = classify(outcome.report)
                summary.signatures[signature] = \
                    summary.signatures.get(signature, 0) + 1
                if self.corpus is not None \
                        and not self.corpus.seen(signature):
                    self._shrink_and_record(outcome, signature, summary)
            if self.on_scenario is not None:
                self.on_scenario(outcome, summary)
        summary.elapsed_s = time.monotonic() - started
        return summary
