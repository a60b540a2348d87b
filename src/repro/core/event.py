"""Timestamped events exchanged between logical processes.

An event carries a destination LP, a virtual-time stamp, a *kind* used by
the receiving LP to dispatch, and an opaque payload.  For Time Warp the
event also records its sender, the sender's virtual time when it was sent
(``send_time``), a per-sender sequence number (so a positive message and
its antimessage can be matched), and a sign (+1 normal, -1 antimessage).

Events order primarily by receive timestamp.  Ties at equal ``(pt, lt)``
are — per the paper's *arbitrary* simultaneous-event model — semantically
free to process in any order; we nevertheless break them deterministically
(by kind priority, then sender id, then sequence number) so that test runs
are reproducible.  A dedicated test shuffles equal-time ties to check that
the results really are order-independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, NamedTuple, Optional, Tuple

from .vtime import VirtualTime


class EventKind(IntEnum):
    """Dispatch tags for events.

    The integer values double as deterministic tie-break priorities among
    events with equal virtual time at one LP (lower value first).  The
    VHDL cycle never depends on this order — that is the whole point of
    the ``(pt, lt)`` tie-breaking — but determinism keeps traces stable.
    """

    #: Null message: carries only a timestamp promise (conservative sync).
    NULL = 0
    #: Process -> signal: a signal assignment (payload: Assignment).
    SIGNAL_ASSIGN = 1
    #: Signal-internal: driver transactions mature at this time.
    SIGNAL_DRIVE = 2
    #: Signal-internal: apply the resolution function and broadcast.
    SIGNAL_RESOLVE = 3
    #: Signal -> process: new effective value (payload: (signal_id, value)).
    SIGNAL_UPDATE = 4
    #: Process-internal: resume process execution.
    PROCESS_RUN = 5
    #: Process-internal: a wait-statement timeout expired.
    PROCESS_TIMEOUT = 6
    #: Generic application event for plain PDES models (tests, examples).
    USER = 7


class EventId(NamedTuple):
    """Globally unique event identity: (sender LP id, sender sequence no.).

    An antimessage carries the same ``EventId`` as the positive message it
    cancels; the pair annihilates wherever the two meet.  A tuple, so
    hashing and comparison (set/dict membership on every delivery) run
    at C level.
    """

    src: int
    seq: int


_seq_counter = itertools.count()


@dataclass(frozen=True)
class Event:
    """An immutable timestamped message between LPs."""

    time: VirtualTime
    kind: EventKind
    dst: int
    src: int
    payload: Any = None
    sign: int = 1
    eid: Optional[EventId] = None
    send_time: VirtualTime = field(default=VirtualTime(0, 0))
    #: Conservative-promise tag, stamped by the parallel fabric at send
    #: time: the sender's conservative epoch if it was in conservative
    #: mode when the message left, -1 otherwise (speculative sends carry
    #: no promise).  Receivers only trust ``send_time`` as a channel
    #: promise when this matches the sender's current epoch — a promise
    #: from a *previous* conservative phase, or one minted while the
    #: sender was optimistic, may be violated by a later rollback.
    epoch: int = -1

    @property
    def is_antimessage(self) -> bool:
        return self.sign < 0

    @property
    def is_null(self) -> bool:
        return self.kind is EventKind.NULL

    def sort_key(self) -> Tuple:
        """Total order: timestamp, then deterministic tie-breaking."""
        eid = self.eid or EventId(self.src, -1)
        return (self.time, int(self.kind), eid.src, eid.seq, self.sign)

    def antimessage(self) -> "Event":
        """The negative twin of this event (Time Warp cancellation).

        Antimessages never carry a channel promise (``epoch = -1``): they
        exist precisely because the sender rolled back.
        """
        if self.sign < 0:
            raise ValueError("cannot negate an antimessage")
        return Event(time=self.time, kind=self.kind, dst=self.dst,
                     src=self.src, payload=self.payload, sign=-1,
                     eid=self.eid, send_time=self.send_time)

    def stamped(self, epoch: int) -> "Event":
        """A copy carrying a conservative-promise epoch tag."""
        return Event(time=self.time, kind=self.kind, dst=self.dst,
                     src=self.src, payload=self.payload, sign=self.sign,
                     eid=self.eid, send_time=self.send_time, epoch=epoch)

    def matches(self, other: "Event") -> bool:
        """True if self and other are a +/- pair for the same message."""
        return (self.eid is not None and self.eid == other.eid
                and self.sign == -other.sign)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = "-" if self.is_antimessage else ""
        return (f"{tag}{self.kind.name}@{self.time} "
                f"{self.src}->{self.dst} {self.payload!r}")


def fresh_event_id(src: int) -> EventId:
    """Mint a process-wide unique event id for sender ``src``."""
    return EventId(src, next(_seq_counter))
