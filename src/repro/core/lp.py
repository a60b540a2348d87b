"""Logical processes (LPs): the unit of distribution in the PDES model.

The physical system is partitioned into entities that communicate only by
exchanging timestamped events; each entity is modelled by a *logical
process* with a state and a ``simulate()`` function (paper, Sec. 2).  A
simulation step calls ``simulate()`` with the next input event; the LP may
modify its state and send output events.

This module defines the abstract LP and the bookkeeping every
synchronization protocol needs:

* an outbox that ``simulate()`` fills via :meth:`LogicalProcess.send` /
  :meth:`LogicalProcess.schedule`;
* checkpointing hooks (:meth:`snapshot` / :meth:`restore`) used by Time
  Warp — the default implementation deep-copies the attributes listed in
  ``state_attrs``;
* a declaration of whether the LP *can* checkpoint at all.  The paper
  notes that heavy-state processes cannot save their state and must run
  conservatively; LPs report this through :attr:`checkpointable`.

LPs never touch the synchronization machinery: conservative blocking,
rollback and adaptation all live in the engines, so the same LP graph runs
unmodified under every protocol.
"""

from __future__ import annotations

import copy
from typing import Any, Iterable, List, Optional, Sequence

from .event import Event, EventId, EventKind
from .vtime import VirtualTime, ZERO, _tuple_new


class LogicalProcess:
    """Base class for all LPs.

    Subclasses implement :meth:`simulate` and list the attribute names
    that constitute their mutable state in ``state_attrs`` (used by the
    default checkpointing).  Everything else on the instance is treated
    as immutable configuration.
    """

    #: Attribute names copied by the default snapshot/restore.
    state_attrs: Sequence[str] = ()

    #: Conformance hook (repro.harness): a Tracer recording protocol
    #: actions, or None (the default — un-traced sends pay only this
    #: attribute check).  Class attribute so plain LPs carry no extra
    #: per-instance state.
    tracer = None

    #: Whether Time Warp may checkpoint and roll this LP back.  LPs whose
    #: state cannot be captured (e.g. ones wrapping a live Python
    #: generator) set this False and the engines pin them conservative.
    checkpointable: bool = True

    #: Structural lookahead: the minimum number of logical phases between
    #: an event *arriving* on a channel and any output it causes.  The
    #: VHDL kernel guarantees 1 (every hop of the distributed VHDL cycle
    #: advances the phase clock); generic LPs promise nothing (0).  The
    #: conservative machinery uses this for its distance-based release
    #: bounds — entirely application-independent, since the value is a
    #: property of the LP class, not of the model being simulated.
    react_lookahead_phases: int = 0

    def __init__(self, name: str) -> None:
        self.name = name
        #: Engine-assigned dense id; set by the kernel at registration.
        self.lp_id: int = -1
        #: Current virtual time while inside ``simulate()``.
        self.now: VirtualTime = ZERO
        self._outbox: List[Event] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def simulate(self, event: Event) -> None:
        """Process one input event; may call send()/schedule()."""
        raise NotImplementedError

    def init_events(self) -> Iterable[Event]:
        """Events this LP injects at time zero (before the first step).

        The default uses the outbox mechanism so subclasses can simply
        call :meth:`schedule`/:meth:`send` from :meth:`on_init`.
        """
        self.now = ZERO
        self._outbox = []
        self.on_init()
        out, self._outbox = self._outbox, []
        return out

    def on_init(self) -> None:
        """Hook for initial scheduling; default does nothing."""

    # ------------------------------------------------------------------
    # Event emission (usable from simulate()/on_init())
    # ------------------------------------------------------------------
    def send(self, dst: int, time: VirtualTime, kind: EventKind,
             payload: Any = None) -> Event:
        """Emit an event to LP ``dst`` at virtual time ``time``.

        The local causality constraint requires ``time >= self.now``;
        violating it would make correct synchronization impossible, so it
        is an error, not a warning.
        """
        if time < self.now:
            raise ValueError(
                f"LP {self.name} at {self.now} tried to send into the past "
                f"({time})")
        event = Event(time, kind, dst, self.lp_id, payload, 1,
                      self._fresh_eid(), self.now)
        if self.tracer is not None:
            self.tracer.record("send", lp=self.lp_id, time=time,
                               dst=dst, kind=int(kind),
                               eid=(event.eid.src, event.eid.seq))
        self._outbox.append(event)
        return event

    def schedule(self, time: VirtualTime, kind: EventKind,
                 payload: Any = None) -> Event:
        """Emit an event to *this* LP (an internal/self event)."""
        return self.send(self.lp_id, time, kind, payload)

    def _fresh_eid(self) -> EventId:
        # The sequence counter is deliberately NOT part of the snapshot:
        # after a rollback the re-executed sends must mint new ids so that
        # they can never be confused with the cancelled originals.
        self._seq += 1
        return _tuple_new(EventId, (self.lp_id, self._seq))

    def drain_outbox(self) -> List[Event]:
        """Engine hook: collect and clear events emitted by simulate()."""
        out, self._outbox = self._outbox, []
        return out

    # ------------------------------------------------------------------
    # Checkpointing (Time Warp)
    # ------------------------------------------------------------------
    def snapshot(self) -> Any:
        """Capture the LP state; default deep-copies ``state_attrs``."""
        return {attr: copy.deepcopy(getattr(self, attr))
                for attr in self.state_attrs}

    def restore(self, snap: Any) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        for attr, value in snap.items():
            setattr(self, attr, copy.deepcopy(value))

    # ------------------------------------------------------------------
    # Durable checkpointing (crash recovery)
    # ------------------------------------------------------------------
    def durable_state(self) -> Any:
        """Self-contained image for restoring into a *fresh* process.

        :meth:`snapshot` may be process-relative — it restores into the
        same live object, so it can lean on state that survives a
        rollback (``SignalLP`` stores only its history *length*, and
        ``_seq`` is deliberately live so re-executions mint fresh event
        ids).  A durable checkpoint shipped to another process (dist
        kill-recovery) has no live object to lean on: this image must
        stand alone.  The eid counter rides along as a *floor* — see
        :meth:`restore_durable`.
        """
        return (self.snapshot(), self._seq)

    def restore_durable(self, state: Any) -> None:
        """Adopt a :meth:`durable_state` image (possibly cross-process).

        ``_seq`` only ever ratchets up: eids the dead incarnation
        minted are world-visible, and re-minting one would annihilate
        the wrong message when its antimessage is eventually sent.
        """
        snap, seq = state
        self.restore(snap)
        self._seq = max(self._seq, seq)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} #{self.lp_id}>"


class FunctionLP(LogicalProcess):
    """A convenience LP wrapping a plain function (for tests/examples).

    The function receives ``(lp, event)`` and uses the LP's emission API.
    State, if any, lives in ``lp.memory`` (a dict), which is checkpointed.
    """

    state_attrs = ("memory",)

    def __init__(self, name: str, fn, on_init=None) -> None:
        super().__init__(name)
        self._fn = fn
        self._on_init = on_init
        self.memory: dict = {}

    def on_init(self) -> None:
        if self._on_init is not None:
            self._on_init(self)

    def simulate(self, event: Event) -> None:
        self._fn(self, event)


class SinkLP(LogicalProcess):
    """An LP that records every event it receives (test instrumentation)."""

    state_attrs = ("received",)

    def __init__(self, name: str = "sink") -> None:
        super().__init__(name)
        self.received: List[Event] = []

    def simulate(self, event: Event) -> None:
        self.received.append(event)


class Channel:
    """A declared directed link between two LPs.

    Conservative synchronization needs the static communication topology:
    channel clocks and null messages are per-channel.  ``lookahead`` is
    the (optional) minimum increment from an input timestamp at ``src`` to
    any output on this channel; ``None`` means unknown (the lookahead-free
    case the paper is designed around).
    """

    __slots__ = ("src", "dst", "lookahead")

    def __init__(self, src: int, dst: int,
                 lookahead: Optional[VirtualTime] = None) -> None:
        self.src = src
        self.dst = dst
        self.lookahead = lookahead

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Channel({self.src}->{self.dst}, la={self.lookahead})"
