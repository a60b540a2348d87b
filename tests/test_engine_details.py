"""Fine-grained engine mechanics: epochs, null promises, release floors,
withheld-send plumbing, the cancellation horizon."""

import pytest

from repro.core.event import Event, EventId, EventKind
from repro.core.lp import FunctionLP
from repro.core.model import Model, SyncMode
from repro.core.vtime import INFINITY, MINUS_INFINITY, VirtualTime
from repro.parallel.cost import CostModel
from repro.parallel.engine import LPRuntime, Processor
from repro.parallel.machine import ParallelMachine
from repro.vhdl import CombinationalBody, Design, SL_0


def ev(dst, pt, lt=0, src=99, seq=None, payload=None, epoch=-1,
       send=None):
    return Event(time=VirtualTime(pt, lt), kind=EventKind.USER, dst=dst,
                 src=src, payload=payload,
                 eid=EventId(src, seq if seq is not None else pt),
                 send_time=send or VirtualTime(pt, lt), epoch=epoch)


class TestEpochStamping:
    def test_stamped_copies_with_epoch(self):
        event = ev(0, 5)
        stamped = event.stamped(3)
        assert stamped.epoch == 3
        assert event.epoch == -1  # original untouched
        assert stamped.eid == event.eid
        assert stamped.time == event.time

    def test_antimessage_never_carries_promise(self):
        event = ev(0, 5).stamped(2)
        assert event.antimessage().epoch == -1

    def test_unstamped_message_updates_no_clock(self):
        model = Model()
        a = FunctionLP("a", lambda lp, e: None)
        b = FunctionLP("b", lambda lp, e: None)
        model.add_lp(a, SyncMode.CONSERVATIVE)
        model.add_lp(b, SyncMode.CONSERVATIVE)
        model.connect(a, b)
        proc = Processor(0, CostModel())
        runtimes = {}
        for lp in (a, b):
            rt = LPRuntime(lp, SyncMode.CONSERVATIVE,
                           model.predecessors(lp.lp_id),
                           model.successors(lp.lp_id))
            runtimes[lp.lp_id] = rt
            proc.adopt(rt)
        proc.runtime_of = runtimes.__getitem__
        proc.route = lambda e: None
        # Speculative (epoch -1) message: no channel promise recorded.
        proc.deliver(ev(b.lp_id, 9, src=a.lp_id, epoch=-1))
        assert runtimes[b.lp_id].channel_clocks == {}
        # Stamped message: promise recorded under the epoch.
        proc.deliver(ev(b.lp_id, 11, src=a.lp_id, seq=2, epoch=0))
        assert runtimes[b.lp_id].channel_clocks[a.lp_id] == (
            0, VirtualTime(11, 0))

    def test_newer_epoch_supersedes(self):
        model = Model()
        a = FunctionLP("a", lambda lp, e: None)
        b = FunctionLP("b", lambda lp, e: None)
        model.add_lp(a, SyncMode.CONSERVATIVE)
        model.add_lp(b, SyncMode.CONSERVATIVE)
        model.connect(a, b)
        proc = Processor(0, CostModel())
        runtimes = {}
        for lp in (a, b):
            rt = LPRuntime(lp, SyncMode.CONSERVATIVE,
                           model.predecessors(lp.lp_id),
                           model.successors(lp.lp_id))
            runtimes[lp.lp_id] = rt
            proc.adopt(rt)
        proc.runtime_of = runtimes.__getitem__
        proc.route = lambda e: None
        proc.deliver(ev(b.lp_id, 20, src=a.lp_id, seq=1, epoch=0))
        # A *newer* epoch's lower promise replaces the stale higher one.
        proc.deliver(ev(b.lp_id, 12, src=a.lp_id, seq=2, epoch=1,
                        send=VirtualTime(12, 0)))
        assert runtimes[b.lp_id].channel_clocks[a.lp_id] == (
            1, VirtualTime(12, 0))


class TestReleaseFloors:
    def build_chain(self):
        """a -> b -> c (VHDL LPs with 1-phase reaction lookahead)."""
        design = Design("chain")
        a = design.signal("a", SL_0)
        b = design.signal("b", SL_0)
        c = design.signal("c", SL_0)
        design.process("p1", CombinationalBody([a], [b], lambda v: v))
        design.process("p2", CombinationalBody([b], [c], lambda v: v))
        return design

    def test_floor_grows_with_distance(self):
        design = self.build_chain()
        machine = ParallelMachine(design.elaborate(), 2,
                                  protocol="conservative")
        # Seed one event at signal `a`, then compute floors.
        a_id = design["a"].lp_id
        rt_a = machine._runtimes[a_id]
        rt_a.queue = []
        machine._refresh_release_floors()
        floors = {lp.name: machine._runtimes[lp.lp_id].release_floor
                  for lp in design.model.lps}
        # p1 is downstream of a; p2 two hops further: each hop through a
        # kernel LP adds at least one logical phase.
        p1 = floors["p1"]
        p2 = floors["p2"]
        if p1 != INFINITY and p2 != INFINITY:
            assert p2 >= p1

    def test_no_events_means_infinite_floors(self):
        design = self.build_chain()
        machine = ParallelMachine(design.elaborate(), 2,
                                  protocol="conservative")
        for runtime in machine._runtimes.values():
            runtime.queue.clear()
            runtime.cancelled.clear()
        for proc in machine.procs:
            proc.inbox.clear()
            proc.local_fifo.clear()
        machine._refresh_release_floors()
        # With no potential events anywhere, every LP with predecessors
        # gets an unbounded floor.
        for lp in design.model.lps:
            runtime = machine._runtimes[lp.lp_id]
            if runtime.preds:
                assert runtime.release_floor == INFINITY


class TestLazyHelpers:
    """The withheld-send path crash recovery feeds (``withhold``)."""

    def make_proc(self):
        model = Model()
        a = FunctionLP("a", lambda lp, e: None)
        model.add_lp(a)
        proc = Processor(0, CostModel())
        rt = LPRuntime(a, SyncMode.OPTIMISTIC, set(), set())
        proc.adopt(rt)
        proc.runtime_of = {a.lp_id: rt}.__getitem__
        sent = []
        proc.route = sent.append
        return proc, rt, sent

    def test_filter_reuses_identical_message(self):
        proc, rt, sent = self.make_proc()
        original = ev(5, 10, payload="x", seq=1)
        rt.withheld = [original]
        regenerated = ev(5, 10, payload="x", seq=2)
        to_route, record = proc._match_withheld(rt, [regenerated])
        assert to_route == []            # nothing resent
        assert record == [original]      # entry records the original
        assert rt.withheld == []
        assert proc.stats.withheld_reused == 1

    def test_filter_routes_different_message(self):
        proc, rt, sent = self.make_proc()
        original = ev(5, 10, payload="x", seq=1)
        rt.withheld = [original]
        different = ev(5, 10, payload="y", seq=2)
        to_route, record = proc._match_withheld(rt, [different])
        assert to_route == [different]
        assert rt.withheld == [original]  # still withheld

    def test_flush_cancels_below_bound(self):
        proc, rt, sent = self.make_proc()
        early = ev(5, 10, seq=1, send=VirtualTime(10, 0))
        late = ev(5, 30, seq=2, send=VirtualTime(30, 0))
        rt.withheld = [early, late]
        proc.flush_withheld(rt, VirtualTime(20, 0))
        assert rt.withheld == [late]
        assert len(sent) == 1
        assert sent[0].sign == -1
        assert sent[0].eid == early.eid


class TestCancellationHorizon:
    """Regression for the orphaned-antimessage deadlock (seed 360472,
    fixed in PR 6; docs/protocol.md §3.2).

    A conservative execution commits irrevocably, so it must stay
    strictly below the cancellation horizon: an event whose own
    cancellation is still withheld may be annulled at its very
    timestamp.  Executing it *at* the horizon commits work the
    cancellation can no longer annihilate, and the negative stays
    parked forever.
    """

    T = VirtualTime(10, 0)

    def make_proc(self):
        model = Model()
        executed = []
        a = FunctionLP("a", lambda lp, e: None)
        b = FunctionLP("b", lambda lp, e: executed.append(e.eid))
        model.add_lp(a, SyncMode.CONSERVATIVE)
        model.add_lp(b, SyncMode.CONSERVATIVE)
        model.connect(a, b)
        proc = Processor(0, CostModel())
        runtimes = {}
        for lp in (a, b):
            rt = LPRuntime(lp, SyncMode.CONSERVATIVE,
                           model.predecessors(lp.lp_id),
                           model.successors(lp.lp_id))
            runtimes[lp.lp_id] = rt
            proc.adopt(rt)
        proc.runtime_of = runtimes.__getitem__
        proc.route = proc.local_fifo.append

        def note(time):  # what both machines install: lower at once
            proc.cancel_floor = min(proc.cancel_floor, time)

        proc.cancel_note = note
        return proc, runtimes[a.lp_id], runtimes[b.lp_id], executed

    def test_no_commit_at_a_withheld_cancellation(self):
        proc, rt_a, rt_b, executed = self.make_proc()
        # a's positive at T, stamped with a's epoch: the channel promise
        # lifts b's input bound to T, so only the horizon can hold it.
        sent = ev(rt_b.lp.lp_id, 10, src=rt_a.lp.lp_id, seq=1, epoch=0)
        proc.seed(sent)
        assert proc._input_bound(rt_b) >= self.T
        # Crash recovery withholds the journalled send, exactly as
        # fabric.recovery.reconcile_outgoing does.
        proc.withhold(rt_a, sent)
        assert proc.cancel_floor == self.T
        assert not proc.act()
        assert executed == []
        assert proc.stats.events_committed == 0
        # The replay abandons the send: the inclusive stall flush
        # cancels it, the antimessage annihilates the queued positive,
        # and nothing is left to commit or to park.
        assert proc.flush_withheld_stalled(self.T)
        proc.drain_local()
        proc.cancel_floor = proc.withheld_low()
        assert proc.cancel_floor == INFINITY
        assert not proc.act()
        assert executed == []
        assert rt_b.head() is None
        assert rt_b.negatives == {}
        assert proc.stats.antimessages == 1
