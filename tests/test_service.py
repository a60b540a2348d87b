"""The batched run service and its CLI: elaborate once, run N times.

Covers the service's amortization accounting (one resolve per distinct
design, cold vs cache-hit), the fan-out itself (every run instantiates
an independent runtime, so mixed backends and repeated runs of one
artifact must commit identical waves), the RunStats.merge fleet
algebra, per-run failure isolation, and the ``repro elab`` /
``repro batch`` commands end to end.
"""

from collections import Counter

import pytest

from repro.circuits import build_fsm, fsm_vhdl
from repro.cli import main
from repro.harness import wave_digest
from repro.service import (BatchJob, RunService, RunSpec, VhdlJob,
                           run_fleet)
from repro.vhdl import ElabCache
from repro.vhdl.compile import CompiledBody
from repro.vhdl.frontend.interp import InterpretedBody


def fsm_builder():
    return build_fsm(cells=3, cycles=3).design


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------
class TestRunService:
    def test_builder_called_once_for_many_runs(self):
        calls = []

        def counting_builder():
            calls.append(1)
            return fsm_builder()

        service = RunService(max_workers=2)
        batch = service.run_batch([BatchJob(
            design=counting_builder,
            runs=[RunSpec(backend="seq") for _ in range(4)])])
        assert len(calls) == 1
        assert batch.ok
        assert batch.elaborations == 1
        assert batch.cache_hits == 0
        assert len(batch.outcomes) == 4

    def test_mixed_backends_commit_identical_waves(self):
        specs = [RunSpec(backend="seq"),
                 RunSpec(backend="model", protocol="optimistic",
                         processors=2),
                 RunSpec(backend="model", protocol="conservative",
                         processors=3),
                 RunSpec(backend="threads", protocol="optimistic",
                         processors=2)]
        batch = run_fleet(fsm_builder().artifact(), specs,
                          max_workers=2)
        assert batch.ok, [o.error for o in batch.failures]
        digests = {wave_digest(o.result) for o in batch.outcomes}
        assert len(digests) == 1

    def test_fleet_stats_merge(self):
        batch = run_fleet(fsm_builder().artifact(),
                          [RunSpec(backend="seq") for _ in range(3)],
                          max_workers=1)
        assert batch.ok
        per_run = [o.result.stats.events_committed
                   for o in batch.outcomes]
        assert batch.fleet.events_committed == sum(per_run)
        summary = batch.summary()
        assert summary["runs"] == 3
        assert summary["failed"] == 0

    def test_run_failure_is_isolated_not_raised(self):
        batch = run_fleet(
            fsm_builder().artifact(),
            [RunSpec(backend="seq"),
             RunSpec(backend="model", protocol="psychic")],
            max_workers=1)
        assert not batch.ok
        assert len(batch.failures) == 1
        assert "psychic" in batch.failures[0].error
        # The healthy run still completed and was merged.
        assert batch.outcomes[0].ok
        assert batch.fleet.events_committed > 0

    def test_vhdl_job_resolves_through_cache(self, tmp_path):
        cache = ElabCache(root=str(tmp_path / "cache"))
        job = VhdlJob(source=fsm_vhdl(3, 4), top="fsm_ring",
                      traced=("taps",))
        service = RunService(cache=cache, max_workers=1)
        cold = service.run_batch([BatchJob(
            design=job, runs=[RunSpec(backend="seq")])])
        warm = service.run_batch([BatchJob(
            design=job, runs=[RunSpec(backend="seq")])])
        assert (cold.elaborations, cold.cache_hits) == (1, 0)
        assert (warm.elaborations, warm.cache_hits) == (0, 1)
        assert wave_digest(cold.outcomes[0].result) == \
            wave_digest(warm.outcomes[0].result)

    def test_two_jobs_two_elaborations(self):
        batch = RunService(max_workers=1).run_batch([
            BatchJob(design=fsm_builder, runs=[RunSpec()]),
            BatchJob(design=lambda: build_fsm(cells=4, cycles=3).design,
                     runs=[RunSpec()]),
        ])
        assert batch.ok
        assert batch.elaborations == 2
        hashes = {o.content_hash for o in batch.outcomes}
        assert len(hashes) == 2

    def test_max_workers_validated(self):
        with pytest.raises(ValueError):
            RunService(max_workers=0)

    def test_resolve_rejects_unknown_source(self):
        with pytest.raises(TypeError):
            RunService().resolve(42)


# ---------------------------------------------------------------------------
# CLI: repro elab / repro batch
# ---------------------------------------------------------------------------
@pytest.fixture()
def vhd(tmp_path):
    path = tmp_path / "fsm.vhd"
    path.write_text(fsm_vhdl(3, 4))
    return str(path)


class TestElabCommand:
    def test_cold_then_cache_hit(self, vhd, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["elab", vhd, "--top", "fsm_ring",
                     "--cache-dir", cache_dir]) == 0
        assert "resolved      : cold" in capsys.readouterr().out
        assert main(["elab", vhd, "--top", "fsm_ring",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "resolved      : cache" in out
        assert "lp graph" in out

    def test_writes_framed_blob(self, vhd, tmp_path, capsys):
        blob = tmp_path / "fsm.artifact"
        assert main(["elab", vhd, "--top", "fsm_ring", "--no-cache",
                     "-o", str(blob)]) == 0
        from repro.vhdl import DesignArtifact, simulate
        artifact = DesignArtifact.from_bytes(blob.read_bytes())
        assert simulate(artifact.instantiate()).traces

    def test_circuit_source(self, capsys):
        assert main(["elab", "--circuit", "fsm"]) == 0
        assert "artifact" in capsys.readouterr().out

    def test_requires_top_with_file(self, vhd):
        with pytest.raises(SystemExit):
            main(["elab", vhd])


class TestBatchCommand:
    def test_batch_mixed_runs_one_digest(self, vhd, tmp_path, capsys):
        assert main(["batch", vhd, "--top", "fsm_ring",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--run", "backend=seq",
                     "--run", "backend=model,protocol=optimistic,p=2",
                     "--repeat", "2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok ") == 4
        assert "1 cold elaboration(s)" in out
        assert "fleet:" in out
        assert "WARNING" not in out

    def test_batch_circuit_default_run(self, capsys):
        assert main(["batch", "--circuit", "fsm"]) == 0
        assert "batch: 1 runs, 0 failed" in capsys.readouterr().out

    def test_the_run_decides_the_exec_mode(self, vhd, monkeypatch):
        """The artifact carries no exec mode: ``exec=interp`` interprets
        although ``--exec compiled`` is the batch's default, and a run
        that names no mode takes that default."""
        calls = Counter()
        for body in (InterpretedBody, CompiledBody):
            def counted(self, api, _resume=body.resume, _name=body.__name__):
                calls[_name] += 1
                return _resume(self, api)
            monkeypatch.setattr(body, "resume", counted)
        batch = ["batch", vhd, "--top", "fsm_ring", "--no-cache",
                 "--exec", "compiled"]
        assert main(batch + ["--run", "exec=interp"]) == 0
        assert calls["InterpretedBody"] and not calls["CompiledBody"]
        calls.clear()
        assert main(batch + ["--run", "backend=seq"]) == 0
        assert calls["CompiledBody"] and not calls["InterpretedBody"]

    def test_bad_run_spec_rejected(self, vhd):
        with pytest.raises(SystemExit):
            main(["batch", vhd, "--top", "fsm_ring", "--no-cache",
                  "--run", "backend"])
        with pytest.raises(SystemExit):
            main(["batch", vhd, "--top", "fsm_ring", "--no-cache",
                  "--run", "warp=9"])
