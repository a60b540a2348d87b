"""Incremental durable checkpoints and the dist upload chain (ISSUE 14).

(a) *Equivalence.*  ``checkpoint_processor(proc, previous)`` re-images
    only the runtimes in ``proc.touched`` and shares the other images
    with ``previous``.  At every checkpoint of whole runs — the model
    machine under a crash schedule, procs workers with recovery on —
    and under arbitrary interleavings on a bare processor, the result
    equals the image taken in one piece, and what it did not re-image
    is the very object ``previous`` holds.
(b) *Fold.*  A dist worker uploads keyframes and deltas;
    ``fold_images([keyframe, delta, ...])`` is the image taken in one
    piece, journal included, and the rebase rule bounds the chain.
(c) *Chain integrity over TCP.*  The coordinator ignores a delta it
    cannot chain (its base died with a connection) without clearing the
    sent-tail, takes the post-attach keyframe, and a later kill restores
    from a chain that holds deltas — oracle-identically.
(d) *Bring-up.*  Daemons start concurrently, each on its own port; one
    that never announces itself fails the run and leaves no child.
"""

import dataclasses
import pickle
import queue
import subprocess
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.circuits import build_fsm, build_iir_from_vhdl, build_random
from repro.core.event import EventKind
from repro.core.lp import LogicalProcess
from repro.core.model import Model, SyncMode
from repro.core.vtime import VirtualTime
from repro.fabric import FaultPlan, transport
from repro.fabric.recovery import checkpoint_processor, restore_processor
from repro.parallel import backend, dist
from repro.parallel.backend import RingSpec, fold_images
from repro.parallel.dist import DistMachine, _DistWorkerCore
from repro.parallel.engine import ProtocolError
from repro.parallel.machine import ParallelMachine
from repro.parallel.procs import ProcsMachine
from repro.vhdl import compile as vhdl_compile
from repro.vhdl import simulate

from tests.strategies import (PROTOCOLS, STATIC_PROTOCOLS, RingInterleaving,
                              prop_settings, ring_steps)
from tests.test_parallel_engine import build, ev
from tests.test_procs import needs_fork


# ----------------------------------------------------------------------
# (a) incremental image == full image
# ----------------------------------------------------------------------
class Checked:
    """``checkpoint_processor`` that also takes the image in one piece
    and compares.  ``incremental`` counts checkpoints built on their
    predecessor, ``shared`` the runtime images they reused from it."""

    def __init__(self):
        self.shared = self.incremental = 0

    def __call__(self, proc, previous=None):
        bookkeeping = proc.touched, proc.imaged
        full = checkpoint_processor(proc)
        proc.touched, proc.imaged = bookkeeping
        image = checkpoint_processor(proc, previous)
        assert image == full
        assert set(image.runtimes) == set(proc.runtimes)
        if image.changed is not None:
            self.incremental += 1
            for lp_id, runtime_image in image.runtimes.items():
                if lp_id in image.changed:
                    assert runtime_image is not previous.runtimes[lp_id]
                else:
                    assert runtime_image is previous.runtimes[lp_id]
                    self.shared += 1
        return image


def traces(design):
    return {s.name: s.trace() for s in design.signals if s.traced}


def compiled_iir():
    design = build_iir_from_vhdl(chans=2, sections=2, width=8, cycles=6)
    vhdl_compile.lower_design(design)
    return design


MODEL_DESIGNS = {
    "fsm": lambda: build_fsm(cells=4, cycles=4).design,
    "random-full": lambda: build_random(42).design,
    "iir-vhdl-compiled": compiled_iir,
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("circuit", sorted(MODEL_DESIGNS))
def test_model_machine_images_equal_at_every_checkpoint(
        monkeypatch, circuit, protocol):
    checked = Checked()
    monkeypatch.setattr(transport, "checkpoint_processor", checked)
    reference = simulate(MODEL_DESIGNS[circuit]())
    design = MODEL_DESIGNS[circuit]()
    machine = ParallelMachine(
        design.elaborate(), 3, protocol=protocol,
        fault_plan=FaultPlan(seed=7, drop=0.03,
                             crashes=((60, 1), (140, 2))))
    outcome = machine.run(max_steps=5_000_000)
    assert traces(design) == reference.traces
    assert outcome.stats.recoveries == 2  # each resets to a full image
    assert checked.incremental > 0


@needs_fork
@pytest.mark.parametrize("protocol", STATIC_PROTOCOLS)
def test_procs_worker_images_equal_at_every_checkpoint(
        monkeypatch, protocol):
    """Workers are forked, so they inherit the checking wrapper; a
    failed comparison surfaces as the worker's error."""
    monkeypatch.setattr(backend, "checkpoint_processor", Checked())
    reference = simulate(build_fsm(cells=4, cycles=4).design)
    design = build_fsm(cells=4, cycles=4).design
    outcome = ProcsMachine(design.elaborate(), 2, protocol=protocol,
                           fault_plan=FaultPlan(seed=11), recovery=True,
                           start_method="fork").run(timeout_s=60.0)
    assert traces(design) == reference.traces
    assert outcome.gvt_rounds > 0


ckpt_ops = st.lists(st.one_of(
    ring_steps,
    st.tuples(st.just("ckpt"), st.just(0), st.just(0)),
    st.tuples(st.just("restore"), st.just(0), st.just(0)),
), min_size=1, max_size=60)


@prop_settings(300)
@given(ckpt_ops)
def test_images_equal_under_any_interleaving(sequence):
    ring = RingInterleaving()
    proc = ring.proc
    checked = Checked()
    image = checked(proc)
    for op, a, b in sequence:
        if op == "ckpt":
            image = checked(proc, image)
        elif op == "restore":
            restore_processor(proc, image)
            ring.delivered.clear()
            image = checked(proc, image)
            assert image.changed is None  # a restore resets to full
        else:
            ring.step(op, a, b)
    checked(proc, image)


def test_only_touched_runtimes_are_imaged_again():
    proc, _lps, runtimes, _sent = build([SyncMode.OPTIMISTIC] * 3)
    checked = Checked()
    first = checked(proc)
    proc.deliver(ev(0, 5))
    second = checked(proc, first)
    assert second.changed == {0} and checked.shared == 2
    # Still holding its event, lp 0 may change without being delivered
    # to again: it stays in the change set until it has gone idle.
    third = checked(proc, second)
    assert third.changed == {0}
    while proc.act():
        pass
    proc.fossil_collect(proc.local_min_time())
    assert checked(proc, third).changed == {0}
    assert checked(proc, proc.imaged).changed == set()
    # A write from outside the engine has to say so.
    runtimes[2].release_floor = proc.gvt_bound
    proc.touched.add(2)
    assert checked(proc, proc.imaged).changed == {2}


def test_an_image_from_elsewhere_is_not_trusted_as_the_base():
    """``previous`` only counts when it is the image ``touched`` is
    relative to; any other image means: capture everything."""
    proc, _lps, _runtimes, _sent = build([SyncMode.OPTIMISTIC] * 2)
    first = checkpoint_processor(proc)
    checkpoint_processor(proc)              # someone else's checkpoint
    proc.deliver(ev(0, 5))
    stale = checkpoint_processor(proc, first)
    assert stale.changed is None
    assert stale == checkpoint_processor(proc)


# ----------------------------------------------------------------------
# (b) fold([keyframe, delta, ...]) == the image taken in one piece
# ----------------------------------------------------------------------
class HubSession:
    """Stands in for ``dist._Session``: relays go straight to the
    peer's inbox, uploads are kept — next to the same image taken in
    one piece at the same moment."""

    attaches = 1

    def __init__(self, hub):
        self.hub = hub
        self.inbox = queue.Queue()
        self.uploads = []  # (n, base, blob, image taken in one piece)
        self.final = None

    def send(self, frame):
        if frame[0] == "relay":
            self.hub[frame[1]].inbox.put(frame[2])
        elif frame[0] == "ckpt":
            _tag, _index, n, base, blob = frame
            whole = self.core._durable_image()
            # Freeze the two live objects in it (events are immutable).
            whole["endpoint"] = endpoint_state(whole["endpoint"])
            whole["net"] = dataclasses.replace(whole["net"])
            self.uploads.append((n, base, blob, whole))
        else:
            self.final = frame


def endpoint_state(endpoint):
    """Everything a ``BatchedEndpoint`` holds, copied into comparable
    form."""
    return (endpoint.index, endpoint.wave,
            dataclasses.replace(endpoint.stats),
            {src: list(seqs)
             for src, seqs in endpoint._acks_pending.items()},
            {dst: (link.next_seq, dict(link.journal), dict(link.unacked),
                   set(link.spent_anti), list(link.holdback),
                   link.faults.plan, link.faults.link)
             for dst, link in endpoint._out.items()},
            {src: (link.expected, dict(link.buffer))
             for src, link in endpoint._in.items()})


def run_on_hub(cells, cycles, protocol):
    """Two dist worker cores on an in-memory hub, one thread each."""
    model = build_fsm(cells=cells, cycles=cycles).design.elaborate()
    spec = (pickle.dumps(model),
            RingSpec(2, protocol=protocol, partition="block"))
    hub = {}
    for index in range(2):
        hub[index] = HubSession(hub)
        hub[index].core = _DistWorkerCore(spec, hub[index])
    threads = [threading.Thread(target=hub[i].core._run_index, args=(i,))
               for i in hub]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    for session in hub.values():
        assert session.final[0] == "done", session.final
    return hub


@pytest.mark.parametrize("protocol", ["conservative", "optimistic"])
def test_fold_of_every_chain_prefix_is_the_whole_image(protocol):
    hub = run_on_hub(4, 40 if protocol == "conservative" else 8, protocol)
    for session in hub.values():
        chain_bytes, keyframe, keyframes, deltas = [], 0, 0, 0
        for n, base, blob, whole in session.uploads:
            if base is None:
                folded = fold_images([pickle.loads(blob)])
                chain_bytes, keyframe = [], len(blob)
                keyframes += 1
            else:
                assert base == n - 1
                # The rebase rule: a delta is only sent while the ones
                # before it weigh less than their keyframe.
                assert sum(chain_bytes) < keyframe
                chain_bytes.append(len(blob))
                folded = fold_images([folded, pickle.loads(blob)])
                deltas += 1
            assert folded["ckpt"] == whole["ckpt"]
            assert endpoint_state(folded["endpoint"]) == whole["endpoint"]
            assert set(folded) == set(whole)
            for key in set(whole) - {"ckpt", "endpoint"}:
                assert folded[key] == whole[key], key
        assert [n for n, *_ in session.uploads] \
            == list(range(len(session.uploads)))
        assert keyframes >= 2 and deltas >= keyframes
        if protocol == "conservative":
            assert len(session.uploads) >= 200


# ----------------------------------------------------------------------
# (c) chain integrity over TCP
# ----------------------------------------------------------------------
class ChainDrill(DistMachine):
    """A coordinator that stages, on worker 1's uploads: one delta dies
    with its connection; the delta after it arrives orphaned and the
    connection is severed; the post-attach keyframe re-bases the chain;
    once the chain holds a delta again, the worker is killed."""

    VICTIM = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stage = "lose"
        self.log = []
        self.failure = None

    async def _on_frame(self, link, frame):
        if frame[0] != "ckpt" or link.index != self.VICTIM:
            return await super()._on_frame(link, frame)
        try:
            await self._drill(link, frame)
        except BaseException as failure:
            # A reader task's exception would be lost, and the run
            # would stall instead of failing: end it here.
            self.failure = failure
            self._complete.set()
            raise

    async def _drill(self, link, frame):
        _tag, _index, n, base, blob = frame
        if self.stage == "lose" and base is not None and link.tail:
            self.stage = "orphan"
            self.log.append(("lost", n))
            return  # never read: written into a dying connection
        before = list(link.ckpt), link.ckpt_head, list(link.tail)
        await super()._on_frame(link, frame)
        if self.stage == "orphan" and base is None:
            # The rebase rule got there first; lose the next delta.
            self.stage = "lose"
            del self.log[-1]
        elif self.stage == "orphan":
            assert base == n - 1 and base != before[1]
            # Ignored, and the sent-tail still reaches back to the
            # upload the chain stands for.
            assert (link.ckpt, link.ckpt_head) == before[:2]
            assert link.tail == before[2] != []
            self.log.append(("orphan", n))
            self.stage = "rebase"
            await self._inject_disconnect(link)
        elif self.stage == "rebase" and base is None:
            assert link.ckpt == [blob] and link.ckpt_head == n
            assert link.tail == []
            self.log.append(("keyframe", n))
            self.stage = "kill"
        elif self.stage == "kill" and len(link.ckpt) > 1:
            self.log.append(("kill", n, len(link.ckpt)))
            self.stage = "done"
            await self._inject_kill(link)


def test_orphan_delta_then_keyframe_then_restore_from_a_chain(monkeypatch):
    restores = []
    send_frame = dist.send_frame

    async def spy(writer, frame):
        if frame[0] == "restore":
            restores.append(len(frame[2]))
        return await send_frame(writer, frame)

    monkeypatch.setattr(dist, "send_frame", spy)
    reference = simulate(build_fsm(cells=6, cycles=6).design)
    design = build_fsm(cells=6, cycles=6).design
    machine = ChainDrill(design.elaborate(), 2, protocol="conservative",
                         partition="block")
    try:
        outcome = machine.run(timeout_s=120.0)
    finally:
        if machine.failure is not None:
            raise machine.failure
    assert traces(design) == reference.traces
    assert outcome.stats.events_committed \
        == reference.stats.events_committed
    assert [entry[0] for entry in machine.log] \
        == ["lost", "orphan", "keyframe", "kill"]
    # The killed worker came back from a chain with a delta in it.
    assert restores == [machine.log[-1][2]] and restores[0] >= 2
    assert outcome.stats.recoveries >= 1
    assert outcome.stats.net_reconnects >= 2


# ----------------------------------------------------------------------
# (d) bring-up
# ----------------------------------------------------------------------
def test_concurrent_spawns_get_their_own_ports(cold_daemons):
    design = build_fsm(cells=4, cycles=2).design
    machine = DistMachine(design.elaborate(), 3, protocol="optimistic")
    machine.run(timeout_s=120.0)
    ports = [link.port for link in machine._links]
    assert all(ports) and len(set(ports)) == 3


def test_silent_daemon_fails_the_run_and_leaves_no_child(monkeypatch,
                                                          cold_daemons):
    """Worker 1's daemon never prints its banner: ``run()`` raises,
    the sibling bring-up is cancelled, every child is reaped."""
    children = []
    popen = subprocess.Popen

    def spawn(argv, **kwargs):
        if len(children) == 1:
            argv = [sys.executable, "-c", "import time; time.sleep(60)"]
        children.append(popen(argv, **kwargs))
        return children[-1]

    monkeypatch.setattr(dist.subprocess, "Popen", spawn)
    model = build_fsm(cells=4, cycles=2).design.elaborate()
    with pytest.raises(ProtocolError, match="never announced"):
        DistMachine(model, 2, protocol="optimistic").run(timeout_s=2.0)
    assert len(children) == 2
    assert all(child.poll() is not None for child in children)


# ----------------------------------------------------------------------
# A positive sent before the image, cancelled after it
# ----------------------------------------------------------------------
class Forward(LogicalProcess):
    """Forwards each event to ``target`` one time unit on (picklable)."""

    state_attrs = ("seen",)

    def __init__(self, name, target=None):
        super().__init__(name)
        self.target = target
        self.seen = 0

    def simulate(self, event):
        self.seen += 1
        if self.target is not None:
            self.send(self.target, VirtualTime(event.time.pt + 1, 0),
                      EventKind.USER, event.payload)


def forward_model():
    """``source`` forwards to ``sink``; returns ``(model, source,
    sink)``.  Partitioned ``{source: 0, sink: 1}`` the one message
    crosses a link."""
    model = Model()
    sink = Forward("sink")
    model.add_lp(sink, SyncMode.OPTIMISTIC)
    source = Forward("source", target=sink.lp_id)
    model.add_lp(source, SyncMode.OPTIMISTIC)
    model.connect(source, sink)
    return model, source, sink


def forward_pair():
    """Worker 0 of a two-worker run, driven by hand: ``source`` (here)
    forwards to ``sink`` (worker 1, a bare inbox).  Returns ``(core,
    proc, hub, source, sink)``.  There is no ring, so no commit ever
    moves the execution window — closed at the start and again after a
    crash; callers open it by hand."""
    model, source, sink = forward_model()
    spec = (pickle.dumps(model),
            RingSpec(2, partition={source.lp_id: 0, sink.lp_id: 1}))
    hub = {}
    hub[0], hub[1] = HubSession(hub), HubSession(hub)
    core = hub[0].core = _DistWorkerCore(spec, hub[0])
    core._setup_worker(0)
    proc = core._proc
    core._install_route()
    return core, proc, hub, source, sink


def cancel_after_the_image_then_crash(proc, source, flush, checkpoint,
                                      crash):
    """The image's log says E1 sent P.  The dead incarnation then took a
    straggler, cancelled P and sent P' instead — both journalled — and
    died; the straggler is gone.  The receiver holds P', not P: the
    restored processor must not keep claiming P (and later cancel P' as
    never regenerated), or the message is lost for good."""
    runtime = proc.runtimes[source.lp_id]

    def run():
        proc.window_end = None
        while proc.act():
            pass
        flush()

    proc.deliver(ev(source.lp_id, 10, payload="x"))
    run()                                   # E1 sends P
    (first,) = runtime.processed[-1].sent
    checkpoint()
    proc.deliver(ev(source.lp_id, 5, payload="s"))
    run()                                   # straggler: -P, then P'
    (second,) = runtime.processed[-1].sent
    assert second.eid != first.eid and second.time == first.time

    crash()
    run()
    # E1 ran again and matched P', the copy the receiver holds.
    assert [e.eid for e in runtime.processed[-1].sent] == [second.eid]
    assert proc.stats.withheld_reused == 1


def test_crash_rolls_back_sends_the_dead_incarnation_cancelled():
    """On the worker ring: 1 run in 25 of tests/test_procs.py::
    test_procs_worker_crash_recovery ended two commits short that
    way."""
    core, proc, _hub, source, _sink = forward_pair()
    cancel_after_the_image_then_crash(
        proc, source, core._flush, core._take_checkpoint, core._crash)
    # The antimessage for P was not sent twice.
    assert core.endpoint.stats.suppressed_resends == 1


def test_model_fabric_crash_rolls_back_sends_the_dead_incarnation_cancelled():
    """The same hole on the modelled fabric, closed by the same
    function (``fabric.recovery.reconcile_outgoing``)."""
    model, source, sink = forward_model()
    machine = ParallelMachine(
        model, 2, protocol="optimistic",
        partition={source.lp_id: 0, sink.lp_id: 1},
        fault_plan=FaultPlan(seed=1), recovery=True)
    fabric = machine.fabric
    cancel_after_the_image_then_crash(
        machine.procs[0], source, lambda: None,
        lambda: fabric.on_gvt_round(machine), lambda: fabric.crash(0))
    assert fabric.stats.suppressed_resends == 1


def test_crash_notice_is_answered_with_the_peers_own_horizon():
    """A notice sent to a worker that is then killed dies with it.  If
    the sender had crashed and rewound below what the dead worker held
    as acknowledged, nothing would ever replay those entries — 1 run in
    25 of tests/test_dist.py::test_dist_drop_crash_disconnect_combo
    stalled at a reorder buffer waiting for one.  So every crash notice
    is answered with the peer's own delivery horizon, as a notice
    without epochs, which replays and is not answered again."""
    core, proc, hub, source, sink = forward_pair()

    def posted():
        """Counted envelopes worker 0 sent since the last call."""
        inner = []
        while not hub[1].inbox.empty():
            tag, src, _count, envelope = hub[1].inbox.get()
            assert (tag, src) == ("c", 0)
            inner.append(envelope)
        return inner

    proc.window_end = None
    proc.deliver(ev(source.lp_id, 10, payload="x"))
    while proc.act():
        pass
    core._flush()
    ((kind, _src, ((seq, sent),)),) = posted()
    assert (kind, seq) == ("batch", 0)
    core.endpoint.ack(1, [0])  # the incarnation that will die has it

    # Worker 1's successor announces itself; its image held seq 0.
    core._on_recover(1, {sink.lp_id: 1}, 1)
    assert posted() == [("recover", 0, {}, 0)]
    # The answer of a peer that needs seq 0 again: replayed, and the
    # exchange ends there.
    core._on_recover(1, {}, 0)
    assert posted() == [("batch", 0, [(0, sent)])]


def test_a_due_crash_never_shares_a_token_with_a_commit():
    """docs/protocol.md §3.6: no commit is issued from cuts a dead
    incarnation contributed to.  The initiator used to pop the crash
    schedule inside the block that issued commit k, so the die and a
    commit computed from the victim's pre-crash cut travelled together:
    the victim restored the image of commit k - 1, then applied k."""
    core, proc, hub, source, _sink = forward_pair()
    core._crash_schedule = [(1, 1)]

    def lap():
        """Worker 1's side of a wave, faked: it has received all that
        was sent and holds nothing.  Returns the token the initiator
        forwarded and the counted envelopes posted with it."""
        token, posted = None, []
        while not hub[1].inbox.empty():
            envelope = hub[1].inbox.get()
            if envelope[0] == "token":
                token = envelope[1]
            else:
                posted.append(envelope[3])
        token["recv"][(0, 1)] = core._sent_to.get(1, 0)
        core._completed_token = token
        return token, posted

    def dies(posted):
        return [envelope for envelope in posted if envelope[0] == "die"]

    proc.deliver(ev(source.lp_id, 10, payload="x"))
    core._initiate()                        # wave 0 goes out
    lap()
    core._initiate()                        # wave 0 back: commit 1
    token, posted = lap()
    assert token["commit"] == VirtualTime(10, 0) and not dies(posted)

    while proc.act():                       # the committed event runs;
        pass                                # its unacknowledged send is
    core._flush()                           # every later wave's minimum
    core._initiate()                        # wave 1 back: the crash is due
    token, posted = lap()
    assert dies(posted) == [("die", 0)]
    assert token["commit"] is None and not token["settled"]
    core._initiate()                        # wave 2: the die may land
    token, posted = lap()                   # on either side of its cut
    assert token["commit"] is None and not token["settled"]
    assert not dies(posted)
    core._initiate()                        # wave 3 is trusted again
    token, _posted = lap()
    assert token["commit"] == VirtualTime(11, 0)


def test_window_halved_to_nothing_opens_again():
    """After the slow start the window widens by an eighth of itself or
    of the distance to the lowest refused head.  Times are femtoseconds
    and the division is integral: without a floor of 1 fs, delta = 0
    and a refused head under 8 fs away would leave the window closed
    for the rest of the run — live, but sequential."""
    core, proc, _hub, source, _sink = forward_pair()
    gvt = VirtualTime(10, 0)
    core._delta, core._ramping = 0, False
    proc.window_end = gvt.pt
    proc.deliver(ev(source.lp_id, 13, payload="x"))
    assert not proc.act()  # refused: 3 fs beyond a closed window
    assert core._resize_window(8, 0, True, gvt) == 1
    core._delta, proc.window_end = 1, gvt.pt + 1
    assert core._resize_window(8, 0, True, gvt) == 2
