"""Regression corpus: every checked-in artifact must replay bit-exactly.

``tests/artifacts/`` doubles as the campaign's seed corpus: each JSON
file is a :class:`~repro.harness.schedule.Schedule` artifact — either
recorded by hand from a historical bug or auto-shrunk out of a fuzzing
run (``repro fuzz --corpus``).  Replaying one re-executes the exact
interleaving (decisions + circuit + config + fault plan) and verifies
the run reproduces its own recorded wave digest, so a protocol
regression that changes committed results — or resurrects a fixed
deadlock — fails here with the original reproducer attached.
"""

import glob
import os

import pytest

from repro.harness import Schedule, replay_schedule

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")

ARTIFACTS = sorted(glob.glob(os.path.join(ARTIFACT_DIR, "*.json")))


def test_corpus_is_not_empty():
    assert ARTIFACTS, f"no artifacts found under {ARTIFACT_DIR}"


@pytest.mark.parametrize("exec_mode", ["interp", "compiled"])
@pytest.mark.parametrize(
    "path", ARTIFACTS, ids=[os.path.basename(p) for p in ARTIFACTS])
def test_artifact_replays_bit_identically(path, exec_mode):
    # Every committed artifact replays under BOTH execution modes: the
    # corpus was recorded against the interpreter, so a compiled replay
    # reproducing the same digest and violation kinds is a differential
    # proof of the lowering pass on every archived bug configuration.
    schedule = Schedule.load(path)
    report = replay_schedule(schedule, exec_mode=exec_mode)
    # Replay must reproduce the recorded waves exactly...
    assert report.digest is not None
    if schedule.wave_digest:
        assert report.digest == schedule.wave_digest, (
            f"{os.path.basename(path)} replayed to different waves")
    # ...and whatever violations the artifact recorded must neither
    # grow nor silently vanish: a clean artifact stays clean, a bug
    # reproducer keeps reproducing the same violation kinds.
    recorded = {v.split(":", 1)[0] for v in schedule.violations}
    replayed = {v.split(":", 1)[0]
                for v in report.violations
                if not v.startswith(("replay-digest",
                                     "replay-divergence"))}
    assert replayed == recorded, (
        f"{os.path.basename(path)}: recorded violation kinds "
        f"{sorted(recorded)} but replay produced {sorted(replayed)}")


def test_crash_recovery_artifact_reaches_the_withheld_path(monkeypatch):
    # The seed-360472 artifact replays a crash recovery: the journalled
    # sends of the dead incarnation go back through Processor.withhold,
    # the path the cancellation horizon (Processor.cancel_floor) guards.
    from repro.parallel.engine import Processor

    calls = []
    withhold = Processor.withhold

    def counted(proc, runtime, sent):
        calls.append(sent)
        withhold(proc, runtime, sent)

    monkeypatch.setattr(Processor, "withhold", counted)
    schedule = Schedule.load(
        os.path.join(ARTIFACT_DIR, "seed-360472-crash-recovery.json"))
    assert schedule.config.circuit_seed == 360472
    report = replay_schedule(schedule)
    assert report.ok, report.violations
    assert report.stats.recoveries == 1
    assert calls
