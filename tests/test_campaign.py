"""The fuzzing campaign (repro.campaign): axes, triage, corpus, loop.

The end-to-end law (mirroring the conformance harness's own injected-
bug test): re-introducing the PR-2 tie-key bug — collapsing the
``(pt, lt)`` tie-breaking to ``pt`` only — must make the campaign find
the violation, deduplicate every manifestation to **one** failure
signature, and leave behind a shrunk artifact that replays to a real
violation.
"""

import dataclasses
import hashlib
import json
import os
import re
import signal
import time
import types

import pytest
from hypothesis import given

from repro.campaign import (ALL_AXES, BACKEND_PROTOCOLS, Campaign,
                            Corpus, FailureSignature, OPT_IN_BACKENDS,
                            Scenario, ScenarioSpace, classify,
                            normalize_violation, run_scenario)
from repro.campaign import runner
from repro.campaign.axes import _freeze_params
from repro.campaign.triage import primary_kind, violation_kind
from repro.config import RunConfig
from repro.harness import Schedule, Scheduler, replay_schedule
from repro.harness.check import RunReport
from tests.strategies import prop_settings, small_seeds, topologies


def take(iterator, n):
    return [next(iterator) for _ in range(n)]


# ---------------------------------------------------------------------------
# Scenario space
# ---------------------------------------------------------------------------
class TestScenarioSpace:
    def test_same_seed_same_stream(self):
        a = take(ScenarioSpace(seed=11).generate(), 40)
        b = take(ScenarioSpace(seed=11).generate(), 40)
        assert a == b

    def test_different_seeds_diverge(self):
        a = take(ScenarioSpace(seed=1).generate(), 40)
        b = take(ScenarioSpace(seed=2).generate(), 40)
        assert a != b

    def test_coverage_cells_come_first(self):
        space = ScenarioSpace(seed=3)
        cells = space.cells()
        head = take(space.generate(), len(cells))
        assert [(s.backend, s.protocol, s.exec_mode)
                for s in head] == list(cells)
        # All 3 backends x all their protocols x both exec modes:
        # (4 + 3 + 3) x 2 cells.
        assert len(cells) == 20

    def test_exec_axis_covers_the_interp_compiled_grid(self):
        # With the exec axis on (the default), every backend x protocol
        # cell is emitted once per execution mode before any sampling.
        # Opt-in backends (dist) stay out unless explicitly selected.
        space = ScenarioSpace(seed=3)
        head = take(space.generate(), len(space.cells()))
        grid = {(s.backend, s.protocol, s.exec_mode) for s in head}
        for backend in BACKEND_PROTOCOLS:
            for protocol in BACKEND_PROTOCOLS[backend]:
                for mode in ("interp", "compiled"):
                    expected = backend not in OPT_IN_BACKENDS
                    assert ((backend, protocol, mode) in grid) \
                        is expected

    def test_opt_in_backend_cells_appear_when_selected(self):
        space = ScenarioSpace(seed=3, backends=["dist"])
        head = take(space.generate(), len(space.cells()))
        grid = {(s.backend, s.protocol, s.exec_mode) for s in head}
        for protocol in BACKEND_PROTOCOLS["dist"]:
            for mode in ("interp", "compiled"):
                assert ("dist", protocol, mode) in grid

    def test_exec_axis_off_keeps_the_interp_grid(self):
        space = ScenarioSpace(seed=3, axes=("topology", "schedules"))
        assert space.exec_modes == ("interp",)
        assert len(space.cells()) == 10
        for scenario in take(space.generate(), 40):
            assert scenario.exec_mode == "interp"

    def test_real_backends_never_draw_dynamic(self):
        for scenario in take(ScenarioSpace(seed=5).generate(), 200):
            assert scenario.protocol in \
                BACKEND_PROTOCOLS[scenario.backend]
            if scenario.backend != "model":
                assert scenario.protocol != "dynamic"
                assert scenario.schedule_seed is None

    def test_seeds_keep_their_stream(self):
        # Before lazy cancellation was retired this seed sampled these
        # 120 scenarios (with " lazy" tags on some): the retired draw is
        # still taken, so every seed still names the same circuits.
        space = ScenarioSpace(seed=12, backends=("model",))
        text = "\n".join(s.describe() for s in take(space.generate(), 120))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] \
            == "d64c9fd7654f1f21"

    def test_axes_off_disables_their_sampling(self):
        space = ScenarioSpace(seed=9, axes=())
        for scenario in take(space.generate(), 60):
            assert scenario.circuit_params == ()
            assert scenario.schedule_seed is None
            assert scenario.fault_plan is None

    def test_backend_restriction(self):
        space = ScenarioSpace(seed=4, backends=["model"])
        for scenario in take(space.generate(), 30):
            assert scenario.backend == "model"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpace(backends=["gpu"])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpace(axes=["chaos"])

    def test_scenarios_are_hashable_by_value(self):
        a, b = take(ScenarioSpace(seed=13).generate(), 2)
        assert hash(a.key()) == hash(a.key())
        assert a.key() != b.key()

    @prop_settings(max_examples=5)
    @given(params=topologies, circuit_seed=small_seeds)
    def test_shared_topology_space_commits_oracle_waves(
            self, params, circuit_seed):
        # The property tests and the campaign sample the same
        # TOPOLOGY_SPACE; any point of it must pass the full check.
        scenario = Scenario(backend="model", protocol="optimistic",
                            circuit_seed=circuit_seed,
                            circuit_params=_freeze_params(params))
        outcome = run_scenario(scenario)
        assert outcome.ok, outcome.report.violations

    def test_describe_names_the_cell(self):
        scenario = Scenario(backend="model", protocol="mixed",
                            circuit_seed=42)
        text = scenario.describe()
        assert "model/mixed" in text
        assert "#42" in text


# ---------------------------------------------------------------------------
# Triage
# ---------------------------------------------------------------------------
def fake_report(violations, stall_report=None):
    return types.SimpleNamespace(violations=violations,
                                 stall_report=stall_report)


class TestTriage:
    def test_violation_kind_is_the_prefix(self):
        assert violation_kind("commit-order: LP 7 ...") == "commit-order"
        assert violation_kind("unregistered junk") == "protocol-error"

    def test_normalize_strips_every_number(self):
        a = normalize_violation(
            "commit-order: LP 7 committed (3000000, 2) after (4000000, 0)")
        b = normalize_violation(
            "commit-order: LP 12 committed (500, 1) after (9000, 2)")
        assert a == b
        assert "7" not in a

    def test_safety_outranks_liveness(self):
        assert primary_kind(["protocol-error: stalled",
                             "commit-order: LP 1 ..."]) == "commit-order"

    def test_primary_kind_requires_a_failure(self):
        with pytest.raises(ValueError):
            primary_kind([])

    def test_pure_liveness_keys_on_the_stall_shape(self):
        stall = types.SimpleNamespace(backend="threads",
                                      reason="no GVT advance for 30s")
        sig = classify(fake_report(["protocol-error: x"], stall))
        assert sig.kind == "protocol-error"
        assert sig.stall == ("threads", "no GVT advance for #s")

    def test_safety_failures_ignore_the_stall(self):
        stall = types.SimpleNamespace(backend="model", reason="wedged")
        sig = classify(fake_report(
            ["commit-order: LP 3 ...", "protocol-error: wedged"], stall))
        assert sig == FailureSignature(kind="commit-order")

    def test_signature_roundtrip_and_slug(self):
        sig = FailureSignature(
            kind="protocol-error",
            stall=("procs", "run deadline exceeded"))
        assert FailureSignature.from_dict(sig.to_dict()) == sig
        assert sig.slug() == "protocol-error-run-deadline-exceeded"


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------
class TestCorpus:
    def _record_one(self, corpus, kind="commit-order"):
        sig = FailureSignature(kind=kind)
        schedule = Schedule(RunConfig(circuit="fsm", circuit_seed=1,
                                      processors=2, protocol="dynamic"),
                            decisions=[0, 1],
                            ncands=[2, 2],
                            violations=[f"{kind}: LP 1 ..."])
        scenario = Scenario(backend="model", protocol="dynamic",
                            circuit="fsm", circuit_seed=1)
        return corpus.record(sig, schedule, scenario,
                             trace_fingerprint="abc123")

    def test_record_then_seen(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        sig = FailureSignature(kind="commit-order")
        assert not corpus.seen(sig)
        path = self._record_one(corpus)
        assert corpus.seen(sig)
        assert len(corpus) == 1
        assert corpus.artifact_paths() == [path]
        # The artifact is a regular Schedule JSON.
        assert Schedule.load(path).config.circuit == "fsm"

    def test_index_survives_reload(self, tmp_path):
        self._record_one(Corpus(str(tmp_path)))
        reloaded = Corpus(str(tmp_path))
        assert len(reloaded) == 1
        assert reloaded.seen(FailureSignature(kind="commit-order"))
        entry = reloaded.entries[0]
        assert entry["trace_fingerprint"] == "abc123"
        assert entry["scenario"]["backend"] == "model"

    def test_unsupported_index_version_rejected(self, tmp_path):
        (tmp_path / "corpus.json").write_text(
            json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            Corpus(str(tmp_path))


# ---------------------------------------------------------------------------
# The campaign loop
# ---------------------------------------------------------------------------
class TestCampaign:
    def test_clean_model_campaign(self, tmp_path):
        space = ScenarioSpace(seed=7, backends=["model"])
        campaign = Campaign(space, budget_s=60.0, max_scenarios=6,
                            corpus=Corpus(str(tmp_path)))
        summary = campaign.run()
        assert summary.ok, summary.describe()
        assert summary.scenarios == 6
        assert len(summary.distinct) == 6
        assert summary.stats.events_committed > 0
        assert sum(summary.coverage.values()) == 6
        assert "all clean" in summary.describe()
        # The first line says how the campaign ran.
        assert summary.workers == min(runner._usable_cores(), 6)
        where = ("in process" if summary.workers == 1
                 else f"on {summary.workers} worker processes")
        assert re.match(rf"campaign: 6 scenarios \(6 distinct\) in "
                        rf"[\d.]+s {where} \([\d.]+ scenarios/s\), "
                        rf"all clean$", summary.describe().splitlines()[0])

    def test_run_scenario_executes_the_canonical_schedule(self):
        scenario = Scenario(backend="model", protocol="dynamic",
                            circuit="fsm")
        outcome = run_scenario(scenario)
        assert outcome.ok, outcome.report.violations
        assert outcome.report.label == "baseline"
        assert outcome.report.digest

    @pytest.mark.parametrize("seed, index", [(12, 44), (19, 50)])
    def test_crash_scenarios_on_a_conservative_model_run_are_clean(
            self, seed, index):
        """Two campaign scenarios that failed ("conservative LP clk ...
        received straggler") until the modelled fabric reconciled a
        crash through the worker ring's function: it parked the dead
        incarnation's journalled sends as withheld cancellations even
        when their sender was conservative, and a cancel-and-resend of
        one reached a conservative receiver that had committed past it.
        Regenerated from the sampler, not pasted; the checks on the
        cell say when a sampler change retargets them."""
        stream = ScenarioSpace(seed, backends=("model",)).generate()
        scenario = take(stream, index + 1)[index]
        assert scenario.protocol == "conservative"
        assert scenario.fault_plan.crashes
        outcome = run_scenario(scenario)
        assert outcome.ok, outcome.report.violations

    @pytest.mark.slow
    def test_scheduled_crash_does_not_race_its_own_commit(self):
        """A campaign scenario (random circuit 520903, 3 workers,
        optimistic, 5 % drop, crash of worker 2 at commit 12) that
        stalled to its deadline about once in 40 procs runs while the
        die and a commit from the victim's pre-crash cut shared a token
        (docs/protocol.md §3.6).  Twenty runs on each in-host ring."""
        stream = ScenarioSpace(12, backends=("threads",)).generate()
        scenario = next(s for s in stream if s.circuit_seed == 520903)
        assert scenario.protocol == "optimistic"
        assert scenario.fault_plan.crashes == ((12, 2),)
        for backend in ("threads", "procs"):
            cell = dataclasses.replace(scenario, backend=backend,
                                       timeout_s=8.0)
            for _ in range(20):
                outcome = run_scenario(cell)
                assert outcome.ok, (backend, outcome.report.violations)

    def test_progress_callback_sees_every_scenario(self):
        seen = []
        campaign = Campaign(ScenarioSpace(seed=1, backends=["model"]),
                            budget_s=60.0, max_scenarios=3,
                            on_scenario=lambda o, s: seen.append(o))
        campaign.run()
        assert len(seen) == 3


@pytest.fixture()
def broken_tie_key(monkeypatch):
    """Re-introduce the PR-2 ordering bug: ties collapse to pt."""
    monkeypatch.setattr(Scheduler, "tie_key",
                        lambda self, time: time[0])


class TestInjectedBugCampaign:
    def test_campaign_finds_shrinks_and_dedups_the_bug(
            self, broken_tie_key, tmp_path):
        # Schedule exploration on the modelled machine is what can
        # steer into the bad interleavings, so restrict to that cell.
        space = ScenarioSpace(seed=7, backends=["model"],
                              axes=("topology", "schedules"))
        corpus = Corpus(str(tmp_path / "corpus"))
        campaign = Campaign(space, budget_s=120.0, max_scenarios=12,
                            corpus=corpus)
        summary = campaign.run()
        # The bug is found...
        assert not summary.ok
        assert summary.failures > 1  # many manifestations...
        assert len(summary.signatures) == 1  # ...one root cause
        # ...recorded exactly once in the corpus...
        assert len(corpus) == 1
        assert summary.new_artifacts == corpus.artifact_paths()
        # ...and the artifact replays to a real violation with the
        # bug still present.
        schedule = Schedule.load(corpus.artifact_paths()[0])
        assert schedule.violations
        replay = replay_schedule(schedule)
        real = [v for v in replay.violations
                if not v.startswith("replay-divergence")]
        assert real, replay.violations

    def test_known_signatures_are_not_rerecorded(self, broken_tie_key,
                                                 tmp_path):
        space = ScenarioSpace(seed=7, backends=["model"],
                              axes=("topology", "schedules"))
        corpus_dir = str(tmp_path / "corpus")
        Campaign(space, budget_s=120.0, max_scenarios=12,
                 corpus=Corpus(corpus_dir)).run()
        # Second campaign over the same space: the signature is known,
        # so the corpus must not grow.
        again = Campaign(ScenarioSpace(seed=8, backends=["model"],
                                       axes=("topology", "schedules")),
                         budget_s=120.0, max_scenarios=12,
                         corpus=Corpus(corpus_dir))
        summary = again.run()
        assert not summary.ok
        assert summary.new_artifacts == []
        assert len(Corpus(corpus_dir)) == 1


# ---------------------------------------------------------------------------
# The fan-out: scenarios on worker processes, outcomes in order
# ---------------------------------------------------------------------------
def descendants():
    """Pids below this process (zombies included), read from /proc."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    stat = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # gone while we looked
            parents[int(entry)] = int(stat[1])
    me = os.getpid()

    def below(pid):
        for _ in range(64):
            pid = parents.get(pid)
            if pid is None:
                return False
            if pid == me:
                return True
        return False

    return {pid for pid in parents if below(pid)}


def use(monkeypatch, mode):
    """Run campaigns in this process (``"serial"``, as on a one-core
    host) or on two forked workers (``"pooled"``), whatever the host
    has.  Forked workers inherit what a test patched."""
    monkeypatch.setattr(runner, "_usable_cores",
                        lambda: 1 if mode == "serial" else 2)
    monkeypatch.delenv("REPRO_PROCS_START", raising=False)


@pytest.fixture()
def pooled(monkeypatch):
    use(monkeypatch, "pooled")


class ScenarioBoom(Exception):
    """What the fake scenarios below raise."""


#: The key of the scenario the fakes below single out; set before the
#: campaign forks its workers, which inherit it.
TARGET = None


def fake_outcome(scenario):
    report = RunReport(label="fake", signature=(), decisions=[],
                       ncands=[], violations=[],
                       digest=str(scenario.circuit_seed))
    return runner.ScenarioOutcome(scenario=scenario, report=report)


def sleeping(scenario):
    if scenario.key() == TARGET:
        time.sleep(30.0)
    return fake_outcome(scenario)


def raising(scenario):
    if scenario.key() == TARGET:
        raise ScenarioBoom(scenario.describe())
    return fake_outcome(scenario)


def dying(scenario):
    if scenario.key() == TARGET:
        os._exit(3)
    return fake_outcome(scenario)


def target(monkeypatch, space, index, fake):
    """Single out the ``index``-th scenario of ``space`` for ``fake``,
    which stands in for ``run_scenario``."""
    key = take(space.generate(), index + 1)[index].key()
    monkeypatch.setitem(globals(), "TARGET", key)
    monkeypatch.setattr(runner, "run_scenario", fake)


def summary_and_sequence(space, **kwargs):
    seen = []
    summary = Campaign(space, budget_s=120.0, on_scenario=lambda o, _s:
                       seen.append((o.scenario.key(), o.report.digest)),
                       **kwargs).run()
    return summary, seen


def same_fields(summary):
    return (summary.scenarios, summary.failures,
            dataclasses.asdict(summary.stats), summary.coverage,
            summary.distinct, summary.signatures)


class TestFanOut:
    @pytest.mark.parametrize("backend, seed, scenarios",
                             [("model", 7, 10), ("threads", 3, 8)])
    def test_pooled_equals_serial(self, monkeypatch, backend, seed,
                                  scenarios):
        runs = {}
        for mode in ("serial", "pooled"):
            use(monkeypatch, mode)
            runs[mode] = summary_and_sequence(
                ScenarioSpace(seed=seed, backends=[backend]),
                max_scenarios=scenarios)
        (serial, serial_seen), (pooled, pooled_seen) = \
            runs["serial"], runs["pooled"]
        assert (serial.workers, pooled.workers) == (1, 2)
        assert serial.ok and pooled.ok
        assert same_fields(pooled) == same_fields(serial)
        assert len(pooled_seen) == scenarios
        assert pooled_seen == serial_seen

    def test_pooled_equals_serial_on_the_injected_bug(
            self, broken_tie_key, monkeypatch, tmp_path):
        runs = {}
        for mode in ("serial", "pooled"):
            use(monkeypatch, mode)
            corpus = Corpus(str(tmp_path / mode))
            space = ScenarioSpace(seed=7, backends=["model"],
                                  axes=("topology", "schedules"))
            summary, seen = summary_and_sequence(
                space, max_scenarios=12, corpus=corpus)
            assert len(summary.signatures) == 1
            assert len(corpus) == 1
            runs[mode] = same_fields(summary), seen
        assert runs["pooled"] == runs["serial"]

    def test_no_process_outlives_a_campaign(self, pooled):
        before = descendants()
        summary = Campaign(ScenarioSpace(seed=3, backends=["procs"]),
                           budget_s=120.0, max_scenarios=2).run()
        assert summary.ok, summary.describe()
        assert summary.workers == 2
        assert descendants() <= before

    @pytest.mark.parametrize("mode", ["serial", "pooled"])
    def test_a_scenario_exception_reaches_the_caller(self, monkeypatch,
                                                     mode):
        use(monkeypatch, mode)
        space = ScenarioSpace(seed=7, backends=["model"])
        target(monkeypatch, space, 2, raising)
        seen = []
        before = descendants()
        with pytest.raises(ScenarioBoom) as raised:
            Campaign(space, max_scenarios=8,
                     on_scenario=lambda o, _s: seen.append(o)).run()
        assert descendants() <= before
        # The scenarios before it were taken, in order.
        assert [o.scenario for o in seen] == take(space.generate(), 2)
        if mode == "pooled":  # the worker's traceback rides along
            assert "in raising" in "\n".join(raised.value.__notes__)

    def test_an_on_scenario_exception_leaves_no_worker(self, pooled):
        def stop(_outcome, _summary):
            raise ScenarioBoom("stop")

        before = descendants()
        with pytest.raises(ScenarioBoom, match="stop"):
            Campaign(ScenarioSpace(seed=7, backends=["model"]),
                     max_scenarios=8, on_scenario=stop).run()
        assert descendants() <= before

    def test_a_dead_worker_is_reported(self, pooled, monkeypatch):
        space = ScenarioSpace(seed=7, backends=["model"])
        target(monkeypatch, space, 1, dying)
        before = descendants()
        with pytest.raises(RuntimeError, match="exit code 3"):
            Campaign(space, max_scenarios=8).run()
        assert descendants() <= before

    @pytest.mark.parametrize("stop", ["on_scenario", "alarm"])
    def test_teardown_does_not_wait_for_running_scenarios(
            self, pooled, monkeypatch, stop):
        # Scenario 1 sleeps 30 s; the campaign is stopped while it runs.
        space = ScenarioSpace(seed=7, backends=["model"])
        target(monkeypatch, space, 1, sleeping)

        def boom(*_args):
            raise ScenarioBoom(stop)

        previous = signal.signal(signal.SIGALRM, boom)
        before = descendants()
        started = time.monotonic()
        try:
            if stop == "alarm":
                signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(ScenarioBoom, match=stop):
                Campaign(space, max_scenarios=8,
                         on_scenario=boom if stop == "on_scenario"
                         else None).run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 2.0
        assert descendants() <= before
