"""Direct unit tests for the batched reliable-delivery endpoint.

:class:`~repro.fabric.batched.BatchedEndpoint` is normally exercised
end-to-end through the procs/dist differential runs, where a failure
shows up as an oracle diff three layers away.  These tests pin the
endpoint's own contract — journaling, ack bookkeeping, dedup/reorder
reassembly, the token-driven retransmit pump, and the crash-recovery
helpers (receiver rewind, journal replay, spent-anti suppression) — at
the unit level, where a regression names the broken method directly.
"""

import pytest

from repro.core.event import Event, EventId, EventKind
from repro.core.vtime import VirtualTime
from repro.fabric.batched import BatchedEndpoint
from repro.fabric.plan import FaultPlan


def ev(seq: int, src: int = 0, sign: int = 1) -> Event:
    """A distinguishable test event; ``seq`` doubles as the timestamp."""
    return Event(time=VirtualTime(seq, 0), kind=EventKind.USER, dst=9,
                 src=src, payload=f"p{seq}", sign=sign,
                 eid=EventId(src, seq))


def clean_endpoint(index: int = 0) -> BatchedEndpoint:
    return BatchedEndpoint(FaultPlan(), index)


class TestEncodeDecode:
    def test_faultfree_roundtrip_in_order(self):
        sender, receiver = clean_endpoint(0), clean_endpoint(1)
        events = [ev(i) for i in range(5)]
        items = sender.encode(1, events)
        assert [seq for seq, _ in items] == [0, 1, 2, 3, 4]
        assert receiver.decode(0, items) == events

    def test_decode_reorder_buffers_then_releases(self):
        receiver = clean_endpoint(1)
        e0, e1, e2 = ev(0), ev(1), ev(2)
        # Deliver 2 first: parked, nothing deliverable.
        assert receiver.decode(0, [(2, e2)]) == []
        assert receiver.stats.reorder_buffered == 1
        # 0 arrives: only 0 releases (1 still missing).
        assert receiver.decode(0, [(0, e0)]) == [e0]
        # 1 arrives: releases 1 and the parked 2, in order.
        assert receiver.decode(0, [(1, e1)]) == [e1, e2]

    def test_decode_acks_every_copy_including_duplicates(self):
        # The sender's unacked map must clear even when it only ever
        # hears about duplicate copies — this is what keeps the ring's
        # channel counts converging under duplication faults.
        receiver = clean_endpoint(1)
        e0 = ev(0)
        receiver.decode(0, [(0, e0)])
        receiver.decode(0, [(0, e0)])  # duplicate copy
        assert receiver.stats.dedup_dropped == 1
        assert receiver.take_acks() == {0: [0, 0]}
        # take_acks drains: a second collect owes nothing.
        assert receiver.take_acks() == {}

    def test_duplicate_of_parked_copy_is_dropped(self):
        receiver = clean_endpoint(1)
        e2 = ev(2)
        receiver.decode(0, [(2, e2)])
        receiver.decode(0, [(2, e2)])
        assert receiver.stats.reorder_buffered == 1
        assert receiver.stats.dedup_dropped == 1

    def test_ack_clears_unacked_and_counts(self):
        sender = clean_endpoint(0)
        sender.encode(1, [ev(0), ev(1)])
        link = sender._out_link(1)
        assert set(link.unacked) == {0, 1}
        sender.ack(1, [0])
        assert set(link.unacked) == {1}
        # Unknown / repeated seqs are ignored, not an error.
        sender.ack(1, [0, 7])
        assert sender.stats.acks == 1
        # The journal survives acks (crash replay needs it).
        assert set(link.journal) == {0, 1}


class TestPump:
    def test_pump_reposts_only_overdue_waves(self):
        sender = clean_endpoint(0)
        sender.wave = 3
        sender.encode(1, [ev(0)])       # transmitted at wave 3
        assert sender.pump(3) == {}     # same wave: ack still in flight
        # One visit later the ack may merely trail the token (it was
        # sent behind it on the ring): not overdue yet.
        assert sender.pump(4) == {}
        posts = sender.pump(5)          # two visits: the ack is overdue
        assert [seq for seq, _ in posts[1]] == [0]
        assert sender.stats.retransmitted == 1
        # The re-post restamps the wave: the next two visits do not
        # re-send, the one after does.
        assert sender.pump(5) == {}
        assert sender.pump(6) == {}
        assert sender.pump(7) != {}

    def test_pump_stops_after_ack(self):
        sender = clean_endpoint(0)
        sender.encode(1, [ev(0)])
        sender.ack(1, [0])
        assert sender.pump(10) == {}


class TestQuiet:
    def test_quiet_when_clean(self):
        assert clean_endpoint().quiet()

    def test_inflight_ack_blocks_quiet(self):
        receiver = clean_endpoint(1)
        receiver.decode(0, [(0, ev(0))])
        assert not receiver.quiet()     # owes an acknowledgement
        receiver.take_acks()            # ack envelope handed to transport
        assert receiver.quiet()

    def test_unacked_send_blocks_quiet(self):
        sender = clean_endpoint(0)
        sender.encode(1, [ev(0)])
        assert not sender.quiet()
        assert list(sender.pending_events()) == [ev(0)]
        sender.ack(1, [0])
        assert sender.quiet()
        assert list(sender.pending_events()) == []

    def test_parked_arrival_blocks_quiet(self):
        receiver = clean_endpoint(1)
        receiver.decode(0, [(2, ev(2))])
        receiver.take_acks()
        assert not receiver.quiet()     # reorder-parked arrival


class TestCrashRecovery:
    def test_rewind_receiver_floors_redeliver_exactly_once(self):
        receiver = clean_endpoint(1)
        items = [(i, ev(i)) for i in range(4)]
        receiver.decode(0, items)
        receiver.take_acks()
        # Crash: rewind to a checkpoint floor of 2.  Seqs >= 2 become
        # deliverable again; seqs < 2 stay dedup-dropped.
        receiver.rewind_receiver({0: 2})
        assert receiver.quiet()         # pending acks cleared with it
        redelivered = receiver.decode(0, items)
        assert [e.eid.seq for e in redelivered] == [2, 3]
        assert receiver.stats.dedup_dropped == 2

    def test_rewind_receiver_defaults_missing_links_to_zero(self):
        receiver = clean_endpoint(1)
        receiver.decode(0, [(0, ev(0))])
        receiver.decode(0, [(2, ev(2))])          # parked
        receiver.rewind_receiver({})              # no floor recorded
        link = receiver._in_link(0)
        assert link.expected == 0
        assert link.buffer == {}                  # parked copies wiped
        assert receiver.decode(0, [(0, ev(0))]) == [ev(0)]

    def test_checkpoint_marks_round_trip(self):
        endpoint = clean_endpoint(0)
        endpoint.encode(1, [ev(0), ev(1)])
        endpoint.decode(2, [(0, ev(0, src=2))])
        sender_marks, recv_floors = endpoint.checkpoint_marks()
        assert sender_marks == {1: 2}
        assert recv_floors == {2: 1}

    def test_sender_window_is_post_checkpoint_journal(self):
        sender = clean_endpoint(0)
        sender.encode(1, [ev(0), ev(1), ev(2)])
        assert [e.eid.seq for e in sender.sender_window(1, 1)] == [1, 2]
        assert sender.sender_window(1, 3) == []

    def test_replay_for_reenters_unacked_until_reacked(self):
        sender = clean_endpoint(0)
        sender.encode(1, [ev(0), ev(1)])
        sender.ack(1, [0, 1])
        assert sender.quiet()
        # Peer crashed and rewound below our sends: they count as owed
        # again until re-acknowledged.
        items = sender.replay_for(1, 0)
        assert [seq for seq, _ in items] == [0, 1]
        assert sender.stats.replayed == 2
        assert not sender.quiet()
        assert sender.pump(sender.wave + 2) != {}
        sender.ack(1, [0, 1])
        assert sender.quiet()

    def test_replay_for_respects_floor(self):
        sender = clean_endpoint(0)
        sender.encode(1, [ev(0), ev(1), ev(2)])
        items = sender.replay_for(1, 2)
        assert [seq for seq, _ in items] == [2]

    def test_mark_spent_anti_suppresses_one_resend(self):
        # A recovered incarnation re-emitting a journalled antimessage
        # must not deliver the cancellation twice: the first re-send is
        # suppressed, a later (distinct) one flows normally.
        sender = clean_endpoint(0)
        anti = ev(5, sign=-1)
        sender.mark_spent_anti(1, {anti.eid})
        assert sender.encode(1, [anti]) == []
        assert sender.stats.suppressed_resends == 1
        items = sender.encode(1, [anti])        # suppression was spent
        assert [e for _seq, e in items] == [anti]

    def test_mark_spent_anti_does_not_touch_positives(self):
        sender = clean_endpoint(0)
        pos = ev(5)
        sender.mark_spent_anti(1, {pos.eid})
        items = sender.encode(1, [pos])
        assert [e for _seq, e in items] == [pos]

    def test_replay_after_mark_spent_anti_keeps_journal_intact(self):
        # Spent-anti bookkeeping is about *future encodes*; the already
        # journalled copies still replay for a crashed peer.
        sender = clean_endpoint(0)
        anti = ev(3, sign=-1)
        sender.encode(1, [ev(0), anti])
        sender.ack(1, [0, 1])
        sender.mark_spent_anti(1, {anti.eid})
        items = sender.replay_for(1, 0)
        assert [e.sign for _seq, e in items] == [1, -1]


class TestFaultInjection:
    def test_drop_keeps_journal_and_unacked(self):
        plan = FaultPlan(drop=1.0, max_drops_per_message=2, seed=1)
        sender = BatchedEndpoint(plan, 0)
        assert sender.encode(1, [ev(0)]) == []   # transmission lost
        link = sender._out_link(1)
        assert 0 in link.journal and 0 in link.unacked
        assert sender.stats.dropped == 1
        # The per-message drop budget bounds retransmission losses:
        # pumping enough waves must eventually surface the message.
        posts = {}
        wave = 0
        while not posts:
            wave += 1
            posts = sender.pump(wave)
        assert [seq for seq, _ in posts[1]] == [0]

    def test_duplicate_produces_two_copies(self):
        plan = FaultPlan(duplicate=1.0, seed=1)
        sender = BatchedEndpoint(plan, 0)
        items = sender.encode(1, [ev(0)])
        assert [seq for seq, _ in items] == [0, 0]
        assert sender.stats.duplicated == 1
        receiver = clean_endpoint(1)
        assert receiver.decode(0, items) == [ev(0)]
        assert receiver.stats.dedup_dropped == 1

    def test_reorder_holdback_overtakes_next_message(self):
        plan = FaultPlan(reorder=1.0, seed=1)
        sender = BatchedEndpoint(plan, 0)
        assert sender.encode(1, [ev(0)]) == []   # copy held back
        assert sender.stats.reordered == 1
        # The next encode releases the held copy *after* the younger
        # message's transmission slot; with reorder=1.0 the younger
        # copy detours too, so only the overtaken seq 0 surfaces now.
        items = sender.encode(1, [ev(1)])
        assert [seq for seq, _ in items] == [0]
        # The pump flushes the remaining held copy; the receiver
        # reassembles in order regardless of arrival order.
        posts = sender.pump(sender.wave + 1)
        receiver = clean_endpoint(1)
        got = receiver.decode(0, items + posts[1])
        assert got == [ev(0), ev(1)]

    def test_pump_flushes_holdback(self):
        plan = FaultPlan(reorder=1.0, seed=1)
        sender = BatchedEndpoint(plan, 0)
        sender.encode(1, [ev(0)])
        assert any(e == ev(0) for e in sender.pending_events())
        posts = sender.pump(sender.wave + 1)
        assert any(seq == 0 for seq, _ in posts.get(1, []))


class TestPlanValidation:
    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=1.5)

    def test_negative_drop_budget_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(max_drops_per_message=-1)
