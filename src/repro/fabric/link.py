"""The reliable link, once: sequence numbers, journal, owed sends,
dedup and reorder — as plain data two drivers share.

A directed link has a sender half (:class:`OutLink`) and a receiver
half (:class:`InLink`).  Neither knows a clock, a queue or a wire:
:class:`~repro.fabric.transport.ReliableFabric` drives them from the
modelled machine's timers, :class:`~repro.fabric.batched.BatchedEndpoint`
from the worker ring's token visits.  What a driver ages an unacked
send by rides along as an opaque ``tick`` — transmission attempts on
the model, the wave of the last transmission on the ring.

Both halves are durable by construction (log-before-send): a crash
wipes the processor, not its links.  Counters go to the ``stats`` the
driver passes in, so a link pickles as nothing but its state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.event import Event
from ..core.stats import RunStats
from .plan import LinkFaults

#: One transmitted copy: (per-link sequence number, event).
Item = Tuple[int, Event]


@dataclass
class OutLink:
    """Sender half of one directed link."""

    faults: LinkFaults
    next_seq: int = 0
    #: Every send retained for crash-recovery replay.
    journal: Dict[int, Event] = field(default_factory=dict)
    #: seq -> (event, tick) for every send not yet acknowledged: the
    #: only surviving copy of a dropped message lives here.
    unacked: Dict[int, Tuple[Event, int]] = field(default_factory=dict)
    #: Antimessage ids a dead incarnation already put on the wire.
    spent_anti: Set[object] = field(default_factory=set)

    def stage(self, event: Event, tick: int,
              stats: RunStats) -> Optional[int]:
        """Number, journal and owe one send; its sequence number, or
        ``None`` for a cancellation that already went out before a
        crash (it is journalled and the link owns completing it — a
        second copy would park at the receiver as an unmatchable
        negative), which is suppressed exactly once."""
        if event.sign < 0 and event.eid in self.spent_anti:
            self.spent_anti.discard(event.eid)
            stats.suppressed_resends += 1
            return None
        seq = self.next_seq
        self.next_seq = seq + 1
        self.journal[seq] = event
        self.unacked[seq] = (event, tick)
        stats.fabric_sent += 1
        return seq

    def acked(self, seq: int, stats: RunStats) -> None:
        """The receiver has ``seq`` (repeats and strangers are ignored)."""
        if self.unacked.pop(seq, None) is not None:
            self.faults.forget(seq)
            stats.acks += 1

    def window(self, base: int) -> Dict[int, Event]:
        """Journalled sends from ``base`` on, in send order — a dead
        incarnation's post-checkpoint output (pruned holes skipped)."""
        journal = self.journal
        return {seq: journal[seq] for seq in range(base, self.next_seq)
                if seq in journal}

    def replay(self, floor: int, tick: Optional[int] = None) -> List[Item]:
        """The journal from ``floor`` on, for a receiver that rewound
        below it.  With a ``tick`` the entries are owed again until
        re-acknowledged (the ring re-posts them over the same lossy
        link); without, the driver guarantees their delivery itself."""
        items = sorted(item for item in self.journal.items()
                       if item[0] >= floor)
        if tick is not None:
            for seq, event in items:
                self.unacked[seq] = (event, tick)
        return items


@dataclass
class InLink:
    """Receiver half of one directed link."""

    expected: int = 0
    #: Out-of-order copies parked until the gap below them fills.
    buffer: Dict[int, Event] = field(default_factory=dict)

    def accept(self, seq: int, event: Event,
               stats: RunStats) -> Tuple[Event, ...]:
        """One arriving copy -> the events it releases, in order:
        exactly-once FIFO out of duplicated, reordered arrivals."""
        expected = self.expected
        buffer = self.buffer
        if seq != expected:
            if seq < expected or seq in buffer:
                stats.dedup_dropped += 1
            else:
                buffer[seq] = event
                stats.reorder_buffered += 1
            return ()
        expected += 1
        if not buffer:
            self.expected = expected
            return (event,)
        out = [event]
        while expected in buffer:
            out.append(buffer.pop(expected))
            expected += 1
        self.expected = expected
        return tuple(out)

    def rewind(self, floor: int) -> None:
        """Crash: everything from ``floor`` on will be redelivered and
        reassembled through the normal path."""
        self.expected = floor
        self.buffer.clear()


def owed(out_links: Iterable[OutLink],
         in_links: Iterable[InLink]) -> Iterator[Event]:
    """Every event these links still owe a delivery for — unacked
    sends and parked arrivals.  GVT must treat them as future arrivals,
    or a lost message could be committed past."""
    for out in out_links:
        for event, _tick in out.unacked.values():
            yield event
    for inbound in in_links:
        yield from inbound.buffer.values()
