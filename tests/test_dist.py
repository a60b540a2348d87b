"""Distributed backend: the token ring over asyncio/TCP.

Differential policy mirrors ``tests/test_procs.py``: every dist run is
compared against a fresh sequential run of the same circuit and the
committed waves must be **byte-identical** — same traces, same commit
count.  On top of the OS interleaving, the transport itself misbehaves
for real here (TCP connections are severed and worker processes are
killed mid-run by deterministic injection), so each passing run is
evidence for the whole recovery stack: counted envelopes, token
custody, checkpoint upload, sent-tail splice and receive-mark restore.

Worker daemons are auto-spawned on localhost (one subprocess each plus
a TCP dial), so a dist run costs noticeably more wall clock than a
procs run.  Tier-1 keeps to the small fsm circuit; the wider protocol
and victim matrices are marked ``slow``.
"""

import os
import subprocess

import pytest

from repro.circuits import (build_fsm, build_iir, build_iir_from_vhdl,
                            build_random)
from repro.fabric import wire
from repro.fabric.plan import FaultPlan
from repro.fabric.wire import (HEADER_SIZE, WireError, decode_frame,
                               decode_header, encode_frame)
from repro.parallel.dist import DistMachine, run_dist
from repro.parallel.engine import ProtocolError
from repro.vhdl import simulate

RUN_BUDGET_S = float(os.environ.get("REPRO_TEST_TIMEOUT_S", "120"))


def run_with_budget(model, processors, protocol, **kwargs):
    """Run the dist backend under the module's deadline budget."""
    try:
        return run_dist(model, processors=processors, protocol=protocol,
                        timeout_s=RUN_BUDGET_S, **kwargs)
    except ProtocolError as failure:
        partial = getattr(failure, "partial_stats", None)
        detail = ""
        if partial is not None:
            detail = (f" (partial progress: "
                      f"{partial.events_committed} committed, "
                      f"{partial.events_executed} executed, "
                      f"{partial.rollbacks} rollbacks)")
        pytest.fail(f"dist run failed within {RUN_BUDGET_S:.0f}s "
                    f"budget: {failure}{detail}")


def assert_matches_sequential(build, protocol, processors=2, **kwargs):
    """One differential check: dist waves == sequential waves."""
    ref = simulate(getattr(built := build(), "design", built))
    design = getattr(built := build(), "design", built)
    outcome = run_with_budget(design.elaborate(), processors,
                              protocol, **kwargs)
    traces = {s.name: s.trace() for s in design.signals if s.traced}
    assert traces == ref.traces
    assert outcome.stats.events_committed == ref.stats.events_committed
    return outcome


# ---------------------------------------------------------------------------
# Wire codec (no network).
# ---------------------------------------------------------------------------
class TestWireCodec:
    def test_roundtrip(self):
        obj = ("relay", 3, ("c", 0, 17, ("batch", 1, [])))
        decoded, rest = decode_frame(encode_frame(obj))
        assert decoded == obj
        assert rest == b""

    def test_concatenated_frames_split_in_order(self):
        data = encode_frame("first") + encode_frame("second")
        one, rest = decode_frame(data)
        two, tail = decode_frame(rest)
        assert (one, two, tail) == ("first", "second", b"")

    def test_short_header_rejected(self):
        with pytest.raises(WireError, match="short frame header"):
            decode_header(b"RPRO")

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame("x"))
        frame[:4] = b"HTTP"
        with pytest.raises(WireError, match="magic"):
            decode_frame(bytes(frame))

    def test_version_mismatch_rejected(self):
        frame = bytearray(encode_frame("x"))
        frame[4] = wire.VERSION + 1
        with pytest.raises(WireError, match="version mismatch"):
            decode_frame(bytes(frame))

    def test_truncated_payload_rejected(self):
        frame = encode_frame("a long enough payload")
        with pytest.raises(WireError, match="truncated frame"):
            decode_frame(frame[:-3])

    def test_corrupt_length_fails_fast(self):
        """A corrupt length field must fail before any allocation."""
        frame = bytearray(encode_frame("x"))
        frame[HEADER_SIZE - 4:HEADER_SIZE] = \
            (wire.MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(WireError, match="ceiling"):
            decode_frame(bytes(frame))

    def test_oversize_payload_rejected_on_encode(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME", 8)
        with pytest.raises(WireError, match="exceeds"):
            encode_frame("much too large for an 8-byte ceiling")


# ---------------------------------------------------------------------------
# Construction-time validation (no network).
# ---------------------------------------------------------------------------
class TestValidation:
    @pytest.fixture(scope="class")
    def model(self):
        return build_random(1).design.elaborate()

    def test_rejects_dynamic_protocol(self, model):
        with pytest.raises(ValueError, match="static protocols only"):
            DistMachine(model, 2, protocol="dynamic")

    def test_rejects_bad_quantum(self, model):
        with pytest.raises(ValueError, match="quantum"):
            DistMachine(model, 2, quantum=0)

    def test_rejects_recovery_off(self, model):
        with pytest.raises(ValueError, match="recovery"):
            DistMachine(model, 2, recovery=False)

    def test_rejects_more_hosts_than_workers(self, model):
        with pytest.raises(ValueError, match="hosts"):
            DistMachine(model, 2,
                        hosts=["a:1", "b:2", "c:3"])

    def test_rejects_kills_on_external_hosts(self, model):
        with pytest.raises(ValueError, match="kill injection"):
            DistMachine(model, 2, kills=[(3, 0)],
                        hosts=["somehost:7421", "otherhost:7421"])

    def test_rejects_unpicklable_partition(self, model):
        with pytest.raises(ValueError, match="partition"):
            DistMachine(model, 2,
                        partition=lambda m, p: [0] * len(m.lps))

    def test_rejects_nonpositive_timeout(self, model):
        with pytest.raises(ValueError, match="timeout_s"):
            DistMachine(model, 2).run(timeout_s=0.0)


# ---------------------------------------------------------------------------
# Tier-1: differential conformance over real TCP workers.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                      "mixed"])
def test_dist_fsm_matches_sequential(protocol):
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), protocol)
    assert outcome.waves >= 1
    assert outcome.gvt_rounds >= 1
    assert outcome.wall_time_s > 0.0
    # The transport is TCP even on localhost: bytes must have moved.
    assert outcome.stats.net_bytes_tx > 0
    assert outcome.stats.net_bytes_rx > 0


def test_dist_wire_budget_and_no_faultfree_retransmission():
    """What a fault-free run may put on the wire (ISSUE 14).

    Checkpoint uploads dominate dist's bytes; they are keyframes and
    deltas now, so this run (15.57 MB when every upload was a full
    image, near-deterministic) must stay under 10 MB with fewer
    keyframes than deltas.  And nothing is retransmitted: the pump
    waits two token visits, because an ack trails the token it races.
    """
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=12, cycles=8), "conservative",
        partition="block")
    stats = outcome.stats
    assert stats.net_bytes_tx <= 10_000_000
    assert stats.net_ckpt_frames >= outcome.gvt_rounds
    assert stats.net_ckpt_keyframes < stats.net_ckpt_frames / 2
    assert stats.net_ckpt_bytes < stats.net_bytes_tx
    assert stats.retransmitted == 0
    assert stats.dedup_dropped == 0


def test_dist_fault_plan_drop_dup_reorder():
    """Lossy, duplicating, reordering fabric over TCP; still exact."""
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "optimistic",
        fault_plan=FaultPlan(drop=0.08, duplicate=0.05, reorder=0.08,
                             seed=7))
    stats = outcome.stats
    assert stats.dropped > 0
    assert stats.retransmitted > 0
    assert stats.acks > 0


def test_dist_forced_disconnect_reconnect():
    """The coordinator severs a live worker connection mid-run; token
    custody and the retransmission pump must heal it exactly."""
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "optimistic",
        disconnects=[(3, 1)])
    assert outcome.stats.net_reconnects >= 1


def test_dist_worker_kill_recovery():
    """A worker *process* dies mid-run; a fresh daemon restores from
    the last uploaded checkpoint + sent-tail and the committed waves
    still match the sequential oracle."""
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "optimistic",
        kills=[(2, 1)])
    assert outcome.stats.recoveries >= 1
    assert outcome.stats.net_reconnects >= 1


#: A worker daemon whose ``WorkerCore`` pins delta at 0, the tightest
#: execution window (the dist twin of ``tests/test_procs.py::
#: ClosedWindow``): daemons are fresh interpreters, so the patch has to
#: travel in their command line.
CLOSED_WINDOW_DAEMON = (
    "from repro.parallel.backend import WorkerCore\n"
    "from repro.parallel.dist import serve\n"
    "WorkerCore._resize_window = lambda self, *evidence: 0\n"
    "serve('127.0.0.1', 0, once=True)\n")


def test_dist_closed_window_survives_a_kill(monkeypatch):
    """Liveness of the window does not lean on delta, nor on the
    incarnation that sized it: a killed worker's successor starts
    over, closed, and the run still ends oracle-identical."""
    popen = subprocess.Popen

    def spawn_patched(argv, **kwargs):
        assert argv[1:4] == ["-m", "repro", "serve"]
        return popen([argv[0], "-c", CLOSED_WINDOW_DAEMON], **kwargs)

    monkeypatch.setattr(subprocess, "Popen", spawn_patched)
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=4, cycles=4), "optimistic",
        kills=[(2, 1)])
    assert outcome.stats.recoveries >= 1
    assert outcome.stats.window_stalls > 0
    assert outcome.stats.window_grows == 0


def test_dist_deadline_raises_protocol_error():
    """A hopeless deadline surfaces as ProtocolError with partial
    stats, not a hang (the error path of the coordinator loop)."""
    model = build_fsm(cells=4, cycles=4).design.elaborate()
    with pytest.raises(ProtocolError, match="deadline"):
        run_dist(model, 2, protocol="optimistic", timeout_s=0.05)


# ---------------------------------------------------------------------------
# Slow matrix: wider circuits, crash faults, every protocol.
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                      "mixed"])
def test_dist_iir_vhdl_matches_sequential(protocol):
    """The paper's IIR filter, compiled from VHDL text, across TCP.

    This is the behavioral iir-vhdl circuit (the one `repro check
    --circuit iir-vhdl --backend dist` gates on); the gate-level
    design follows.
    """
    assert_matches_sequential(lambda: build_iir_from_vhdl(),
                              protocol, processors=3)


@pytest.mark.slow
def test_dist_gate_iir_optimistic_is_bounded():
    """Gate-level ``build_iir`` + optimistic used to be kept out of
    every suite: relay latency widened the virtual-time surface and
    unthrottled optimism turned it into a rollback storm (16 events
    executed per committed one, 80 s; 1.45 and under 8 s now).  Each worker now bounds its own
    optimism to ``GVT + delta`` (docs/protocol.md, "Bounded optimism");
    ``tests/test_procs.py`` runs the same design in tier-1."""
    outcome = assert_matches_sequential(build_iir, "optimistic")
    stats = outcome.stats
    assert stats.events_executed <= 3 * stats.events_committed


@pytest.mark.slow
@pytest.mark.parametrize("protocol", ["optimistic", "conservative",
                                      "mixed"])
def test_dist_kill_matrix(protocol):
    """Kill each victim in turn under every protocol."""
    for victim in (0, 1):
        outcome = assert_matches_sequential(
            lambda: build_fsm(cells=4, cycles=4), protocol,
            kills=[(2, victim)])
        assert outcome.stats.recoveries >= 1


@pytest.mark.slow
def test_dist_drop_crash_disconnect_combo():
    """Everything at once: lossy fabric, an in-process crash, a severed
    connection and a killed worker in a single run."""
    outcome = assert_matches_sequential(
        lambda: build_fsm(cells=5, cycles=5), "optimistic",
        fault_plan=FaultPlan(drop=0.05, reorder=0.05,
                             seed=3).with_crashes((2, 0)),
        disconnects=[(4, 0)], kills=[(3, 1)])
    assert outcome.stats.crashes >= 1
    assert outcome.stats.recoveries >= 2
    assert outcome.stats.net_reconnects >= 2
