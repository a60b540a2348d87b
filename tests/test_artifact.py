"""The artifact layer: elaborate once, instantiate bit-identically.

The contract under test is the elaborate/simulate split:

* **round-trip fidelity** — a run on ``artifact.instantiate()`` commits
  exactly the waves, finals and event counts of a run on a freshly
  built design, for every circuit family, backend and exec mode (the
  artifact is pickled state, so this is simultaneously the procs
  backend's spawn-shipping guarantee);
* **content addressing** — hashes are pure functions of the
  elaboration inputs (or, for programmatic designs, the LP-graph
  structure), stable across processes and ``PYTHONHASHSEED`` values;
* **single-use runtime** — a Design that has elaborated or simulated
  refuses to do so again and points at the artifact API instead;
* **cache robustness** — hit/miss accounting, LRU eviction, and a
  corrupt or misfiled entry behaving as a miss (evict + re-elaborate),
  never as an error or a wrong result.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.circuits import (build_fsm, build_fsm_from_vhdl,
                            build_random, build_random_behavioral,
                            fsm_vhdl)
from repro.config import RunConfig
from repro.harness import check_backend, wave_digest
from repro.harness.check import Checker, circuit_artifact
from repro.parallel.engine import PROTOCOLS
from repro.vhdl import (ArtifactError, DesignArtifact, ElabCache,
                        artifact_key, build_artifact, cached_elaborate,
                        simulate, simulate_parallel)
from repro.vhdl.artifact import MAGIC, canonical_digest, design_manifest

#: Fresh-design builders across the circuit families: programmatic
#: netlists (picklable frozen-dataclass bodies) and frontend-elaborated
#: VHDL (interpreted ASTs, the circuits where exec modes diverge).
BUILDERS = {
    "fsm": lambda: build_fsm(cells=3, cycles=3).design,
    "random": lambda: build_random(5, gates=8, registers=2,
                                   stimulus_bits=2, cycles=3).design,
    "fsm-vhdl": lambda: build_fsm_from_vhdl(cells=3, cycles=4),
    "behav": lambda: build_random_behavioral(2, processes=2, cycles=4),
}


def assert_identical(a, b):
    assert a.traces == b.traces
    assert wave_digest(a) == wave_digest(b)
    assert a.finals == b.finals
    assert a.stats.events_committed == b.stats.events_committed


# ---------------------------------------------------------------------------
# Round-trips: instantiate() == fresh build, everywhere
# ---------------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("circuit", sorted(BUILDERS))
    def test_instantiate_matches_fresh_build(self, circuit):
        build = BUILDERS[circuit]
        artifact = build().artifact()
        direct = simulate(build())
        via_artifact = simulate(artifact.instantiate())
        assert_identical(direct, via_artifact)

    @pytest.mark.parametrize("circuit", sorted(BUILDERS))
    def test_pickled_artifact_still_bit_identical(self, circuit):
        # The spawn path in one assertion: the artifact crosses a
        # (simulated) process boundary, then instantiates a runtime
        # that must match the original process's run exactly.
        build = BUILDERS[circuit]
        artifact = build().artifact()
        shipped = pickle.loads(pickle.dumps(artifact))
        assert shipped == artifact
        assert shipped.content_hash == artifact.content_hash
        assert_identical(simulate(build()),
                         simulate(shipped.instantiate()))

    @pytest.mark.parametrize("backend", ("model", "threads"))
    @pytest.mark.parametrize("exec_mode", ("interp", "compiled"))
    def test_backends_and_exec_modes_from_one_artifact(self, backend,
                                                       exec_mode):
        artifact = BUILDERS["behav"]().artifact()
        oracle = simulate(artifact.instantiate())
        run = simulate_parallel(artifact.instantiate(), 2,
                                protocol="optimistic", backend=backend,
                                exec_mode=exec_mode)
        assert_identical(oracle, run)

    def test_kernel_accepts_artifact_directly(self):
        artifact = BUILDERS["fsm"]().artifact()
        direct = simulate(BUILDERS["fsm"]())
        assert_identical(direct, simulate(artifact))
        assert_identical(direct, simulate_parallel(artifact, 2,
                                                   protocol="optimistic"))

    def test_instantiations_are_independent(self):
        artifact = BUILDERS["fsm-vhdl"]().artifact()
        first = artifact.instantiate()
        second = artifact.instantiate()
        assert first is not second
        # Running (and thereby consuming) one runtime must not
        # perturb the other.
        a = simulate(first)
        b = simulate(second)
        assert_identical(a, b)

    def test_instantiate_model_is_runnable(self):
        artifact = BUILDERS["fsm"]().artifact()
        model = artifact.instantiate_model()
        assert len(model) == artifact.meta["lps"]

    def test_build_artifact_compiled_instantiates_identically(self):
        # One artifact serves both exec modes: the run picks.
        artifact = build_artifact(fsm_vhdl(3, 4), top="fsm_ring",
                                  traced=("taps",))
        assert_identical(simulate(artifact, exec_mode="interp"),
                         simulate(artifact, exec_mode="compiled"))


# ---------------------------------------------------------------------------
# Single-use runtime: the hazard the artifact API replaces
# ---------------------------------------------------------------------------
class TestSingleUse:
    def test_reelaboration_raises(self):
        design = BUILDERS["fsm"]()
        design.elaborate()
        with pytest.raises(RuntimeError, match="artifact"):
            design.elaborate()

    def test_resimulation_raises(self):
        design = BUILDERS["fsm"]()
        simulate(design)
        with pytest.raises(RuntimeError, match="artifact"):
            simulate(design)

    def test_snapshot_of_simulated_design_rejected(self):
        design = BUILDERS["fsm"]()
        simulate(design)
        with pytest.raises(ArtifactError, match="already simulated"):
            DesignArtifact.from_design(design)

    def test_snapshot_then_run_original_still_allowed(self):
        # Snapshot first, run later: the supported order.
        design = BUILDERS["fsm"]()
        artifact = design.artifact()
        original = simulate(design)
        assert_identical(original, simulate(artifact.instantiate()))


# ---------------------------------------------------------------------------
# Content addressing: stable, input-sensitive, seed-independent
# ---------------------------------------------------------------------------
class TestHashing:
    def test_structural_hash_is_reproducible(self):
        one = BUILDERS["random"]().artifact()
        two = BUILDERS["random"]().artifact()
        assert one.content_hash == two.content_hash
        assert one == two

    def test_structural_hash_sees_topology(self):
        small = build_fsm(cells=3, cycles=3).design.artifact()
        large = build_fsm(cells=4, cycles=3).design.artifact()
        assert small.content_hash != large.content_hash

    def test_key_sensitivity(self):
        source = fsm_vhdl(3, 4)
        base = artifact_key(source, "fsm_ring")
        assert artifact_key(source + " ", "fsm_ring") != base
        assert artifact_key(source, "other_top") != base
        assert artifact_key(source, "fsm_ring",
                            generics={"n": 1}) != base
        assert artifact_key(source, "fsm_ring", traced=False) != base

    def test_key_ignores_trace_list_order(self):
        source = fsm_vhdl(3, 4)
        assert artifact_key(source, "fsm_ring",
                            traced=("a", "b")) == \
            artifact_key(source, "fsm_ring", traced=("b", "a"))

    def test_hash_is_never_computed_on_the_run_path(self, monkeypatch):
        # Snapshotting, instantiating and running — sequentially, on
        # every protocol of the model, and through a reusing harness
        # exploration — never read the structural hash.
        def refuse(design):
            raise AssertionError("design_manifest on the run path")

        monkeypatch.setattr("repro.vhdl.artifact.design_manifest", refuse)
        monkeypatch.setattr("repro.harness.check._ARTIFACT_MEMO", {})
        artifact = build_fsm(cells=3, cycles=3).design.artifact()
        artifact.instantiate()
        simulate(artifact)
        for protocol in PROTOCOLS:
            simulate_parallel(artifact, 4, protocol=protocol,
                              backend="model")
        report = Checker("fsm", circuit_params={"cells": 3, "cycles": 2},
                         reuse_artifact=True).explore(schedules=3)
        assert report.ok
        monkeypatch.undo()
        assert artifact.content_hash == canonical_digest(
            design_manifest(build_fsm(cells=3, cycles=3).design))

    def test_canonical_digest_ignores_dict_order(self):
        assert canonical_digest({"a": 1, "b": {2, 3}}) == \
            canonical_digest({"b": {3, 2}, "a": 1})

    def test_hashes_stable_across_hash_seeds(self):
        # The cross-process determinism check: fresh interpreters with
        # adversarial PYTHONHASHSEED values must agree on both the
        # source key and the structural manifest digest — otherwise
        # the on-disk cache could never hit across runs.
        code = (
            "from repro.circuits import build_fsm, fsm_vhdl\n"
            "from repro.vhdl.artifact import (artifact_key,"
            " canonical_digest, design_manifest)\n"
            "src = fsm_vhdl(3, 4)\n"
            "print(artifact_key(src, 'fsm_ring', generics={'g': 2},"
            " traced=('taps', 'clk')))\n"
            "print(canonical_digest(design_manifest("
            "build_fsm(cells=3, cycles=3).design)))\n")
        outputs = set()
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH="src")
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env,
                cwd=os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__))),
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, "hashes vary with PYTHONHASHSEED"


# ---------------------------------------------------------------------------
# Framed serialization: to_bytes/from_bytes and damage detection
# ---------------------------------------------------------------------------
class TestSerialization:
    def roundtrip(self):
        artifact = BUILDERS["fsm"]().artifact()
        return artifact, DesignArtifact.from_bytes(artifact.to_bytes())

    def test_bytes_roundtrip(self):
        artifact, back = self.roundtrip()
        assert back.name == artifact.name
        assert back.content_hash == artifact.content_hash
        assert back.meta == artifact.meta
        assert back.payload == artifact.payload
        assert_identical(simulate(artifact.instantiate()),
                         simulate(back.instantiate()))

    def test_bad_magic_rejected(self):
        with pytest.raises(ArtifactError, match="magic"):
            DesignArtifact.from_bytes(b"not an artifact at all")

    def test_truncated_header_rejected(self):
        with pytest.raises(ArtifactError, match="truncated"):
            DesignArtifact.from_bytes(MAGIC + b'{"name": "x"')

    def test_corrupt_header_rejected(self):
        with pytest.raises(ArtifactError, match="header"):
            DesignArtifact.from_bytes(MAGIC + b"nonsense}\nxx")

    def test_flipped_payload_byte_rejected(self):
        blob = bytearray(BUILDERS["fsm"]().artifact().to_bytes())
        blob[-1] ^= 0xFF
        with pytest.raises(ArtifactError, match="digest mismatch"):
            DesignArtifact.from_bytes(bytes(blob))


# ---------------------------------------------------------------------------
# The on-disk elaboration cache
# ---------------------------------------------------------------------------
class TestElabCache:
    def fresh(self, tmp_path, **kwargs):
        return ElabCache(root=str(tmp_path / "cache"), **kwargs)

    def test_miss_then_hit(self, tmp_path):
        cache = self.fresh(tmp_path)
        source = fsm_vhdl(3, 4)
        cold, hit = cached_elaborate(source, "fsm_ring",
                                     traced=("taps",), cache=cache)
        assert not hit
        warm, hit = cached_elaborate(source, "fsm_ring",
                                     traced=("taps",), cache=cache)
        assert hit
        assert warm.content_hash == cold.content_hash
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
        # The acceptance criterion: the cached-artifact run is
        # bit-identical to the cold run.
        assert_identical(simulate(cold.instantiate()),
                         simulate(warm.instantiate()))

    def test_corrupt_entry_is_a_miss_and_evicted(self, tmp_path):
        cache = self.fresh(tmp_path)
        source = fsm_vhdl(3, 4)
        artifact, _ = cached_elaborate(source, "fsm_ring", cache=cache)
        (path,) = [os.path.join(cache.root, n)
                   for n in os.listdir(cache.root)]
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\x00")
        assert cache.get(artifact.content_hash) is None
        assert cache.entries() == {}
        # The caller's fallback re-elaborates and re-puts cleanly.
        again, hit = cached_elaborate(source, "fsm_ring", cache=cache)
        assert not hit
        assert cache.get(again.content_hash) is not None

    def test_format_1_entry_is_a_miss_evicted_and_replaced(self, tmp_path):
        # A format-1 entry pickles the per-process view object bodies
        # were once handed; it reads as a miss instead of failing to
        # instantiate, and the re-elaborated artifact takes its place.
        cache = self.fresh(tmp_path)
        source = fsm_vhdl(3, 4)
        artifact, _ = cached_elaborate(source, "fsm_ring", cache=cache)
        path = cache._path(artifact.content_hash)
        with open(path, "rb") as handle:
            blob = handle.read()
        format_1 = b"repro-artifact\x001\n"
        assert MAGIC != format_1
        with open(path, "wb") as handle:
            handle.write(format_1 + blob[len(MAGIC):])
        assert cache.get(artifact.content_hash) is None
        assert cache.entries() == {}
        again, hit = cached_elaborate(source, "fsm_ring", cache=cache)
        assert not hit
        with open(path, "rb") as handle:
            assert handle.read().startswith(MAGIC)
        warm, hit = cached_elaborate(source, "fsm_ring", cache=cache)
        assert hit
        assert_identical(simulate(again.instantiate()),
                         simulate(warm.instantiate()))

    def test_misfiled_entry_is_a_miss(self, tmp_path):
        cache = self.fresh(tmp_path)
        artifact = BUILDERS["fsm"]().artifact()
        cache.put(artifact)
        wrong = "0" * 64
        os.rename(cache._path(artifact.content_hash),
                  cache._path(wrong))
        assert cache.get(wrong) is None
        assert cache.entries() == {}

    def test_lru_eviction(self, tmp_path):
        cache = self.fresh(tmp_path, max_entries=2)
        artifacts = [build_fsm(cells=c, cycles=2).design.artifact()
                     for c in (2, 3, 4)]
        for artifact in artifacts:
            cache.put(artifact)
            os.utime(cache._path(artifact.content_hash),
                     (0, len(cache.entries())))  # force mtime order
        assert len(cache.entries()) == 2
        assert cache.get(artifacts[0].content_hash) is None  # oldest
        assert cache.get(artifacts[2].content_hash) is not None

    def test_clear_and_bad_keys(self, tmp_path):
        cache = self.fresh(tmp_path)
        cache.put(BUILDERS["fsm"]().artifact())
        assert cache.clear() == 1
        assert cache.entries() == {}
        with pytest.raises(ValueError):
            cache.get("")
        with pytest.raises(ValueError):
            cache.get(f"..{os.sep}escape")


# ---------------------------------------------------------------------------
# Harness reuse: the fuzzing campaign's amortization path
# ---------------------------------------------------------------------------
class TestHarnessReuse:
    def test_circuit_artifact_memoizes(self):
        one = circuit_artifact("fsm", 0, {"cells": 3, "cycles": 3})
        two = circuit_artifact("fsm", 0, {"cycles": 3, "cells": 3})
        assert one is two  # params order must not defeat the memo

    def test_check_backend_reuse_matches_cold(self):
        config = RunConfig(backend="threads", protocol="optimistic",
                           circuit="fsm",
                           circuit_params={"cells": 3, "cycles": 3})
        cold = check_backend(config)
        warm = check_backend(config, reuse_artifact=True)
        assert cold.ok, cold.violations
        assert warm.ok, warm.violations
        assert cold.digest == warm.digest
