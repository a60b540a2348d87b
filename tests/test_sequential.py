"""Sequential reference engine: ordering, horizons, stats."""

import random

import pytest

from repro.core.event import Event, EventId, EventKind
from repro.core.lp import FunctionLP, SinkLP
from repro.core.model import Model
from repro.core.sequential import SequentialSimulator
from repro.core.vtime import VirtualTime


def make_event(dst, pt, lt=0, payload=None, seq=None):
    return Event(time=VirtualTime(pt, lt), kind=EventKind.USER, dst=dst,
                 src=99, payload=payload,
                 eid=EventId(99, seq if seq is not None else pt * 10 + lt))


class TestOrdering:
    def test_events_processed_in_timestamp_order(self):
        model = Model()
        sink = SinkLP()
        model.add_lp(sink)
        sim = SequentialSimulator(model)
        for pt in (5, 1, 3, 2, 4):
            sim.inject(make_event(0, pt, payload=pt))
        sim.run()
        assert [e.payload for e in sink.received] == [1, 2, 3, 4, 5]

    def test_logical_time_breaks_physical_ties(self):
        model = Model()
        sink = SinkLP()
        model.add_lp(sink)
        sim = SequentialSimulator(model)
        for lt in (2, 0, 1):
            sim.inject(make_event(0, 7, lt, payload=lt))
        sim.run()
        assert [e.payload for e in sink.received] == [0, 1, 2]

    def test_generated_events_interleave(self):
        model = Model()
        log = []

        def relay(lp, event):
            log.append(event.payload)
            if event.payload == "a":
                lp.send(1, VirtualTime(2, 0), EventKind.USER, "b")

        a = FunctionLP("a", relay)
        b = SinkLP("b")
        model.add_lp(a)
        model.add_lp(b)
        model.connect(a, b)
        sim = SequentialSimulator(model)
        sim.inject(make_event(0, 1, payload="a"))
        sim.inject(make_event(0, 3, payload="c"))
        sim.run()
        assert log == ["a", "c"]
        assert [e.payload for e in b.received] == ["b"]


class TestHorizons:
    def test_until_inclusive(self):
        model = Model()
        sink = SinkLP()
        model.add_lp(sink)
        sim = SequentialSimulator(model)
        sim.inject(make_event(0, 10, payload="at"))
        sim.inject(make_event(0, 11, payload="past"))
        sim.run(until=10)
        assert [e.payload for e in sink.received] == ["at"]
        assert sim.pending() == 1
        assert sim.next_time() == VirtualTime(11, 0)

    def test_max_events(self):
        model = Model()
        sink = SinkLP()
        model.add_lp(sink)
        sim = SequentialSimulator(model)
        for pt in range(5):
            sim.inject(make_event(0, pt))
        sim.run(max_events=3)
        assert len(sink.received) == 3

    def test_resume_after_until(self):
        model = Model()
        sink = SinkLP()
        model.add_lp(sink)
        sim = SequentialSimulator(model)
        sim.inject(make_event(0, 1))
        sim.inject(make_event(0, 5))
        sim.run(until=2)
        assert len(sink.received) == 1
        sim.run(until=10)
        assert len(sink.received) == 2


class TestStats:
    def test_counters(self):
        model = Model()
        sink = SinkLP()
        model.add_lp(sink)
        sim = SequentialSimulator(model)
        sim.inject(make_event(0, 1))
        sim.inject(make_event(0, 2))
        stats = sim.run()
        assert stats.events_committed == 2
        assert stats.events_executed == 2
        assert stats.efficiency == 1.0
        assert stats.final_time == VirtualTime(2, 0)

    def test_null_events_skipped(self):
        model = Model()
        sink = SinkLP()
        model.add_lp(sink)
        sim = SequentialSimulator(model)
        sim.inject(Event(time=VirtualTime(1, 0), kind=EventKind.NULL,
                         dst=0, src=0, eid=EventId(0, 0)))
        stats = sim.run()
        assert sink.received == []
        assert stats.events_executed == 0

    def test_shuffle_ties_keeps_time_order(self):
        model = Model()
        sink = SinkLP()
        model.add_lp(sink)
        sim = SequentialSimulator(model, shuffle_ties=random.Random(1))
        for pt in (3, 1, 2):
            sim.inject(make_event(0, pt, payload=pt))
        sim.run()
        assert [e.payload for e in sink.received] == [1, 2, 3]
