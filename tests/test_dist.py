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

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.circuits import (build_fsm, build_iir, build_iir_from_vhdl,
                            build_random)
from repro.fabric import wire
from repro.fabric.plan import FaultPlan
from repro.fabric.wire import (HEADER_SIZE, WireError, decode_frame,
                               decode_header, encode_frame)
from repro.parallel import dist
from repro.parallel.dist import (DistMachine, run_dist,
                                 shutdown_local_daemons)
from repro.parallel.engine import ProtocolError
from repro.vhdl import simulate

from tests.conftest import serve_descendants

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
    "serve('127.0.0.1', 0)\n")


def test_dist_closed_window_survives_a_kill(monkeypatch, cold_daemons):
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
    model = build_fsm(cells=12, cycles=8).design.elaborate()
    with pytest.raises(ProtocolError, match="deadline"):
        run_dist(model, 2, protocol="conservative", timeout_s=0.05)


# ---------------------------------------------------------------------------
# Daemon lifecycle: warm between the runs of a process, never after a
# run that did not prove them sound, never beyond their owner.
# ---------------------------------------------------------------------------
def fsm_run(**kwargs):
    return run_with_budget(build_fsm(cells=4, cycles=4).design.elaborate(),
                           2, "optimistic", **kwargs)


def idle_pids():
    return sorted(proc.pid for proc, _port in dist._idle)


def eventually(condition, within_s=2.0):
    deadline = time.monotonic() + within_s
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def gone(pid):
    """No such process, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def thread_count(pid):
    with open(f"/proc/{pid}/status") as handle:
        return int(handle.read().split("Threads:")[1].split()[0])


def test_second_run_reuses_the_first_runs_daemons(cold_daemons):
    fsm_run()
    first = idle_pids()
    assert len(first) == 2
    fsm_run()
    assert idle_pids() == first
    assert serve_descendants(os.getpid()) == first
    # Never more idle daemons than the last run used.
    run_with_budget(build_fsm(cells=4, cycles=4).design.elaborate(), 3,
                    "optimistic")
    assert len(idle_pids()) == 3 and set(first) < set(idle_pids())
    fsm_run()
    assert len(idle_pids()) == 2
    assert serve_descendants(os.getpid()) == idle_pids()
    shutdown_local_daemons()
    assert idle_pids() == [] == serve_descendants(os.getpid())


def test_a_run_that_failed_returns_no_daemon(cold_daemons):
    fsm_run()
    first = idle_pids()
    model = build_fsm(cells=12, cycles=8).design.elaborate()
    with pytest.raises(ProtocolError, match="deadline"):
        run_dist(model, 2, protocol="conservative", timeout_s=0.05)
    assert idle_pids() == []
    assert all(gone(pid) for pid in first)
    assert serve_descendants(os.getpid()) == []


def test_a_killed_links_daemon_is_not_returned(cold_daemons):
    fsm_run()
    first = idle_pids()
    outcome = fsm_run(kills=[(2, 1)])
    assert outcome.stats.recoveries >= 1
    # Worker 0's daemon came back; neither the victim's nor the one
    # that replaced it mid-run did.
    assert len(idle_pids()) == 1 and idle_pids()[0] in first
    assert serve_descendants(os.getpid()) == idle_pids()


def test_a_daemon_killed_while_idle_is_replaced(cold_daemons):
    fsm_run()
    first = idle_pids()
    victim = dist._idle[0][0]
    victim.kill()
    victim.wait()
    fsm_run()
    second = idle_pids()
    assert len(second) == 2 and victim.pid not in second
    assert len(set(first) & set(second)) == 1


def test_a_warm_daemon_that_does_not_answer_is_replaced(cold_daemons):
    """Alive by ``poll()`` but not listening where the registry says:
    the failed ``hello`` discards it and a fresh one takes the run."""
    fsm_run()
    first = idle_pids()
    proc, _port = dist._idle[0]
    dist._idle[0] = (proc, 1)  # tcpmux: connection refused
    fsm_run()
    assert proc.pid not in idle_pids() and gone(proc.pid)
    assert len(idle_pids()) == 2
    assert len(set(first) & set(idle_pids())) == 1


def test_back_to_back_runs_leak_no_thread(cold_daemons):
    fsm_run()
    pids = idle_pids()
    assert eventually(lambda: all(thread_count(pid) == thread_count(pids[0])
                                  for pid in pids))
    baseline = [thread_count(pid) for pid in pids]
    for _ in range(20):
        fsm_run()
    assert idle_pids() == pids
    assert eventually(
        lambda: [thread_count(pid) for pid in pids] == baseline)


def test_a_daemons_sessions_end_with_their_runs():
    """The multi-session daemon an auto-spawned worker now is, hosted
    in this process so its ``sessions`` can be read: twenty runs leave
    it empty, with no worker thread behind."""
    box = {}
    ready = threading.Event()

    async def host():
        box["daemon"] = daemon = dist._WorkerDaemon()
        server = await asyncio.start_server(daemon.handle, "127.0.0.1", 0)
        box["port"] = server.sockets[0].getsockname()[1]
        box["loop"] = asyncio.get_running_loop()
        ready.set()
        async with server:
            await daemon.closed.wait()

    thread = threading.Thread(target=asyncio.run, args=(host(),))
    thread.start()
    try:
        assert ready.wait(10.0)
        threads = threading.active_count()
        hosts = [f"127.0.0.1:{box['port']}"] * 2
        for _ in range(20):
            fsm_run(hosts=hosts)
        daemon = box["daemon"]
        assert eventually(lambda: not daemon.sessions)
        assert eventually(lambda: threading.active_count() == threads)
    finally:
        box["loop"].call_soon_threadsafe(box["daemon"].closed.set)
        thread.join(10.0)


CHILD_COORDINATOR = (
    "import sys\n"
    "from repro.circuits import build_fsm\n"
    "from repro.parallel import dist\n"
    "while True:\n"
    "    dist.run_dist(build_fsm(cells=4, cycles=4).design.elaborate(),\n"
    "                  2, protocol='optimistic', timeout_s=60.0)\n"
    "    print(*(proc.pid for proc, _port in dist._idle), flush=True)\n"
    "    if sys.argv[1] == 'once':\n"
    "        break\n")


def child_coordinator(mode):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(dist.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.Popen([sys.executable, "-c", CHILD_COORDINATOR, mode],
                            env=env, stdout=subprocess.PIPE, text=True)


def test_interpreter_exit_leaves_no_daemon():
    with child_coordinator("once") as child:
        pids = [int(pid) for pid in child.stdout.readline().split()]
        assert child.wait(30.0) == 0
    assert len(pids) == 2
    # Reaped by the exiting interpreter itself, not merely signalled.
    assert all(gone(pid) for pid in pids)


def test_a_sigkilled_coordinator_leaves_no_daemon():
    """The owner pipe: a coordinator that dies without running a line
    of clean-up (SIGKILL, the OOM killer) used to leave its daemons
    listening for ever."""
    with child_coordinator("forever") as child:
        try:
            # Past its first run: the daemons exist, warm or mid-run.
            assert child.stdout.readline().split()
            pids = serve_descendants(child.pid)
            assert len(pids) == 2
        finally:
            child.send_signal(signal.SIGKILL)
    assert eventually(lambda: all(gone(pid) for pid in pids), within_s=2.0)


# ---------------------------------------------------------------------------
# Forward first, image after (docs/distributed.md).
# ---------------------------------------------------------------------------
class UploadOrder(DistMachine):
    """A coordinator that records, per worker and in arrival order,
    the tokens it relayed *from* it (as the commit each carried) and
    the checkpoint uploads it received from it (as their number)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.frames = {}

    async def _on_frame(self, link, frame):
        log = self.frames.setdefault(link.index, [])
        if frame[0] == "relay" and frame[2][0] == "token":
            log.append(("token", frame[2][1]["commit"]))
        elif frame[0] == "ckpt":
            log.append(("ckpt", frame[2]))
        await super()._on_frame(link, frame)


@pytest.mark.parametrize("protocol", ["optimistic", "conservative"])
def test_an_upload_follows_the_token_that_carried_its_commit(protocol):
    reference = simulate(build_fsm(cells=6, cycles=6).design)
    design = build_fsm(cells=6, cycles=6).design
    machine = UploadOrder(design.elaborate(), 2, protocol=protocol,
                          partition="block")
    outcome = machine.run(timeout_s=RUN_BUDGET_S)
    assert {s.name: s.trace() for s in design.signals if s.traced} \
        == reference.traces
    assert len(machine.frames) == 2
    for log in machine.frames.values():
        uploads = [n for kind, n in log if kind == "ckpt"]
        commits = [c for kind, c in log if kind == "token" and c is not None]
        # Gap-free, and one per commit after the initial image.
        assert uploads == list(range(len(uploads)))
        assert len(uploads) == 1 + len(commits) == 1 + outcome.gvt_rounds
        assert log[0] == ("ckpt", 0)
        for before, (kind, _n) in zip(log, log[1:]):
            if kind == "ckpt":
                # Right behind the relay of the token that carried the
                # commit it images — not ahead of it, on the token's path.
                assert before[0] == "token" and before[1] is not None


class KillBehindTheToken(DistMachine):
    """Kills ``victim`` in the window forward-first opened: its token
    relayed on (commit ``at_commit`` aboard), the upload imaging that
    commit not accepted — whatever of it the dead connection still
    holds is discarded, as if the kill had come a moment earlier."""

    def __init__(self, *args, victim, at_commit=2, **kwargs):
        super().__init__(*args, **kwargs)
        self.victim, self.at_commit = victim, at_commit
        self.commits = 0
        self.dead_reader = None
        self.discarded = []

    async def _on_frame(self, link, frame):
        if frame[0] == "ckpt" and link.reader is self.dead_reader:
            self.discarded.append(frame[2])
            return
        await super()._on_frame(link, frame)
        if link.index == self.victim and self.dead_reader is None \
                and frame[0] == "relay" and frame[2][0] == "token" \
                and frame[2][1]["commit"] is not None:
            self.commits += 1
            if self.commits == self.at_commit:
                self.dead_reader = link.reader
                self.head = link.ckpt_head
                await self._inject_kill(link)


def kill_behind_the_token(protocol, victim):
    reference = simulate(build_fsm(cells=4, cycles=4).design)
    design = build_fsm(cells=4, cycles=4).design
    machine = KillBehindTheToken(design.elaborate(), 2, protocol=protocol,
                                 victim=victim)
    outcome = machine.run(timeout_s=RUN_BUDGET_S)
    assert {s.name: s.trace() for s in design.signals if s.traced} \
        == reference.traces
    assert outcome.stats.events_committed == reference.stats.events_committed
    # The kill happened, and the restore was from the image *before*
    # the commit the token had already carried on.
    assert machine.dead_reader is not None
    assert outcome.stats.recoveries >= 1
    assert all(n > machine.head for n in machine.discarded)
    return machine


def test_dist_kill_between_token_relay_and_upload():
    kill_behind_the_token("optimistic", victim=1)


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
        # ... and in the window between its token's relay and the
        # upload that images the commit the token carried.
        kill_behind_the_token(protocol, victim)


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
