"""The reliable link, alone (:mod:`repro.fabric.link`).

``ReliableFabric`` (model clock) and ``BatchedEndpoint`` (token ring)
drive one link state machine.  Its contract is pinned here without
either driver — exactly-once in-order release out of any arrival
multiset, suppression of spent antimessages, journal windows with
pruned holes, what GVT is owed — plus the one property that spans the
drivers: the same fault plan makes both draw a message's dice in the
same order, which is what keeps ``tests/test_fault_plan_repro.py``
bit-stable across the two.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.event import Event, EventId, EventKind
from repro.core.stats import RunStats
from repro.core.vtime import VirtualTime
from repro.fabric.batched import BatchedEndpoint
from repro.fabric.link import InLink, OutLink, owed
from repro.fabric.plan import FaultPlan, LinkFaults
from repro.fabric.transport import ReliableFabric
from repro.parallel.cost import SHARED_MEMORY


def ev(seq: int, sign: int = 1) -> Event:
    return Event(time=VirtualTime(seq, 0), kind=EventKind.USER, dst=9,
                 src=0, payload=f"p{seq}", sign=sign, eid=EventId(0, seq))


def out_link() -> OutLink:
    return OutLink(LinkFaults(FaultPlan(), (0, 1)))


@st.composite
def arrivals(draw):
    """Any multiset of copies of seqs ``0..n-1`` (a seq may have no
    copy at all), in any arrival order."""
    counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=10))
    copies = [seq for seq, count in enumerate(counts) for _ in range(count)]
    return counts, draw(st.permutations(copies))


class TestInLink:
    @given(arrivals())
    def test_exactly_once_in_order_and_every_copy_accounted(self, drawn):
        counts, order = drawn
        link, stats = InLink(), RunStats()
        released = []
        for seq in order:
            out = link.accept(seq, ev(seq), stats)
            assert isinstance(out, tuple)
            released.extend(event.eid.seq for event in out)
        # The longest gap-free prefix that arrived, each seq once.
        gap = counts.index(0) if 0 in counts else len(counts)
        assert released == list(range(gap))
        assert link.expected == gap
        assert all(seq > gap for seq in link.buffer)
        assert len(released) + stats.dedup_dropped + len(link.buffer) \
            == len(order)
        assert stats.reorder_buffered >= len(link.buffer)

    @given(arrivals(), st.integers(0, 10))
    def test_rewind_then_rearrival_rereleases_from_the_floor(self, drawn,
                                                             floor):
        counts, order = drawn
        link, stats = InLink(), RunStats()
        for seq in order:
            link.accept(seq, ev(seq), stats)
        floor = min(floor, link.expected)
        link.rewind(floor)
        assert (link.expected, link.buffer) == (floor, {})
        again = []
        for seq in range(len(counts)):
            again.extend(e.eid.seq
                         for e in link.accept(seq, ev(seq), stats))
        assert again == list(range(floor, len(counts)))


class TestOutLink:
    def test_stage_numbers_journals_and_owes(self):
        link, stats = out_link(), RunStats()
        assert [link.stage(ev(i), 7, stats) for i in range(3)] == [0, 1, 2]
        assert link.next_seq == 3
        assert link.journal == {i: ev(i) for i in range(3)}
        assert link.unacked == {i: (ev(i), 7) for i in range(3)}
        assert stats.fabric_sent == 3

    def test_spent_antimessage_is_suppressed_exactly_once(self):
        link, stats = out_link(), RunStats()
        anti = ev(4, sign=-1)
        link.spent_anti.add(anti.eid)
        # A positive with the same id is not a cancellation.
        assert link.stage(ev(4), 0, stats) == 0
        assert link.stage(anti, 0, stats) is None
        assert (stats.suppressed_resends, link.next_seq) == (1, 1)
        assert anti.eid not in link.spent_anti
        assert link.stage(anti, 0, stats) == 1     # the second goes out
        assert stats.suppressed_resends == 1

    def test_acked_clears_once_and_ignores_strangers(self):
        link, stats = out_link(), RunStats()
        link.stage(ev(0), 0, stats)
        for seq in (0, 0, 5):
            link.acked(seq, stats)
        assert (link.unacked, stats.acks) == ({}, 1)
        assert 0 in link.journal            # crash replay still needs it

    def test_window_and_replay_skip_pruned_holes(self):
        link, stats = out_link(), RunStats()
        for i in range(6):
            link.stage(ev(i), 0, stats)
            link.acked(i, stats)
        for pruned in (0, 1, 3):
            del link.journal[pruned]
        assert list(link.window(0)) == [2, 4, 5]
        assert link.window(3) == {4: ev(4), 5: ev(5)}
        assert link.window(6) == {}
        # Without a tick the driver delivers the replay itself ...
        assert link.replay(2) == [(2, ev(2)), (4, ev(4)), (5, ev(5))]
        assert link.unacked == {}
        # ... with one, the entries are owed again until re-acked.
        assert link.replay(4, 9) == [(4, ev(4)), (5, ev(5))]
        assert link.unacked == {4: (ev(4), 9), 5: (ev(5), 9)}


def test_owed_is_unacked_and_parked():
    out, inbound, stats = out_link(), InLink(), RunStats()
    for i in range(3):
        out.stage(ev(i), 0, stats)
    out.acked(1, stats)
    inbound.accept(7, ev(7), stats)
    inbound.accept(0, ev(0), stats)         # released, not owed
    assert sorted(e.eid.seq for e in owed([out], [inbound])) == [0, 2, 7]
    assert list(owed([], [])) == []


# ----------------------------------------------------------------------
# Across the two drivers
# ----------------------------------------------------------------------
class _Proc:
    def __init__(self, index):
        self.index, self.clock, self.inbox, self.ingress = index, 0.0, [], None


class _Machine:
    cost = SHARED_MEMORY

    def __init__(self):
        self.procs = [_Proc(0), _Proc(1)]


def test_both_drivers_draw_a_message_s_dice_in_the_same_order(monkeypatch):
    """First transmissions of the same sends on link 0 -> 1: the same
    ``should_drop`` / ``copies`` / ``extra_latency`` calls with the
    same outcomes, message by message."""
    calls = []
    for name in ("should_drop", "copies", "extra_latency"):
        def recorded(self, *args, _name=name,
                     _real=getattr(LinkFaults, name)):
            result = _real(self, *args)
            calls.append((_name, args, result))
            return result
        monkeypatch.setattr(LinkFaults, name, recorded)
    plan = FaultPlan(drop=0.3, duplicate=0.3, reorder=0.3, jitter=2.0,
                     spike=0.1, seed=1234)
    events = [ev(i) for i in range(40)]

    machine = _Machine()
    fabric = ReliableFabric(plan)
    fabric.bind(machine)
    for event in events:
        fabric.send(machine.procs[0], machine.procs[1], event)
    on_model, calls[:] = list(calls), []

    BatchedEndpoint(plan, 0).encode(1, events)
    assert calls == on_model
    assert {name for name, _args, _result in calls} \
        == {"should_drop", "copies", "extra_latency"}
