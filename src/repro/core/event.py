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

``Event`` is a slots :class:`~repro.core.record.Record`, not a frozen
dataclass.  Every executed event builds at least one new event, and a
frozen dataclass spends most of its construction in one
``object.__setattr__`` call per field; the slots record builds about
2.5 times faster and carries no ``__dict__``.  It also pickles as its
class plus its field tuple, which is how the worker ring ships events in
batches: a quarter fewer bytes per event and faster unpickling.  The
measured rows are in docs/machine-model.md ("What a message costs").
Equality, hashing, ``repr`` and ordering are those of the dataclass,
and no field is written after ``__init__``.
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from typing import Any, NamedTuple, Optional, Tuple

from .record import Record
from .vtime import ZERO, VirtualTime


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


class Event(Record):
    """An immutable timestamped message between LPs.

    ``time``, ``kind``, ``dst`` and ``src`` are required; the rest
    default to a positive, unstamped message with no payload.  The
    conservative-promise tag ``epoch`` is stamped by the parallel fabric
    at send time: the sender's conservative epoch if it was in
    conservative mode when the message left, -1 otherwise (speculative
    sends carry no promise).  Receivers only trust ``send_time`` as a
    channel promise when this matches the sender's current epoch — a
    promise from a *previous* conservative phase, or one minted while
    the sender was optimistic, may be violated by a later rollback.
    """

    __slots__ = ("time", "kind", "dst", "src", "payload", "sign", "eid",
                 "send_time", "epoch")

    def __init__(self, time: VirtualTime, kind: EventKind, dst: int,
                 src: int, payload: Any = None, sign: int = 1,
                 eid: Optional[EventId] = None,
                 send_time: VirtualTime = ZERO, epoch: int = -1) -> None:
        self.time = time
        self.kind = kind
        self.dst = dst
        self.src = src
        self.payload = payload
        self.sign = sign
        self.eid = eid
        self.send_time = send_time
        self.epoch = epoch

    @property
    def is_antimessage(self) -> bool:
        return self.sign < 0

    @property
    def is_null(self) -> bool:
        return self.kind is EventKind.NULL

    def sort_key(self) -> Tuple:
        """Total order: timestamp, then deterministic tie-breaking."""
        eid = self.eid
        if eid is None:
            return (self.time, int(self.kind), self.src, -1, self.sign)
        return (self.time, int(self.kind), eid[0], eid[1], self.sign)

    def antimessage(self) -> "Event":
        """The negative twin of this event (Time Warp cancellation).

        Antimessages never carry a channel promise (``epoch = -1``): they
        exist precisely because the sender rolled back.
        """
        if self.sign < 0:
            raise ValueError("cannot negate an antimessage")
        return Event(self.time, self.kind, self.dst, self.src, self.payload,
                     -1, self.eid, self.send_time)

    def stamped(self, epoch: int) -> "Event":
        """A copy carrying a conservative-promise epoch tag."""
        return Event(self.time, self.kind, self.dst, self.src, self.payload,
                     self.sign, self.eid, self.send_time, epoch)

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
