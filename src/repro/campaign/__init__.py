"""Continuous differential fuzzing campaign.

The conformance harness (:mod:`repro.harness`) can interrogate one
configuration very hard: explore schedules, scan traces with the
protocol invariants, diff against the sequential oracle, shrink a
failure to a replayable artifact.  What it cannot do by itself is pick
*which* configurations to interrogate.  This package is that driver — a
fuzzing orchestrator that composes every scenario axis the repo has
grown:

* **topology** — random-logic netlists over the generator's axis space
  (gates / registers / stimulus bits / cycles / fanout cap / delay
  palette, :data:`repro.circuits.random_logic.TOPOLOGY_SPACE`);
* **faults** — seeded :class:`~repro.fabric.plan.FaultPlan`\\ s (drop /
  duplicate / reorder / jitter / spike, occasionally processor crashes
  with checkpoint recovery);
* **schedules** — controlled seeded-random interleavings on the
  modelled machine (threads workers take turns in one thread, in a
  fixed order; the OS picks for procs);
* **exec** — process execution mode, interpreted × compiled;

crossed with **backends** {model, threads, procs} × **protocols**
{optimistic, conservative, mixed, dynamic}.  Every scenario runs
through the differential oracle and the trace invariants under a
time/iteration budget; failures are shrunk with the harness's
delta-debugging shrinker into replayable JSON artifacts, deduplicated
by failure signature, and persisted to a corpus directory that doubles
as a regression suite (see ``tests/test_corpus_replay.py``).

Modules:

* :mod:`~repro.campaign.axes`   — the scenario space and its sampler;
* :mod:`~repro.campaign.runner` — budgeted campaign execution loop;
* :mod:`~repro.campaign.triage` — failure signatures and deduplication;
* :mod:`~repro.campaign.corpus` — the on-disk artifact corpus.
"""

from .axes import (ALL_AXES, BACKEND_PROTOCOLS, OPT_IN_BACKENDS,
                   Scenario, ScenarioSpace)
from .corpus import Corpus
from .runner import Campaign, CampaignSummary, ScenarioOutcome, run_scenario
from .triage import FailureSignature, classify, normalize_violation

__all__ = [
    "ALL_AXES", "BACKEND_PROTOCOLS", "OPT_IN_BACKENDS",
    "Scenario", "ScenarioSpace",
    "Corpus",
    "Campaign", "CampaignSummary", "ScenarioOutcome", "run_scenario",
    "FailureSignature", "classify", "normalize_violation",
]
