"""VHDL processes as logical processes.

A VHDL process statement maps naturally onto a PDES LP (paper Sec. 3.2):
the LP state holds the process variables and *local copies* of the
effective values of every signal the process reads; the ``simulate()``
function reacts to

* external ``SIGNAL_UPDATE`` events — a signal the process reads changed
  its effective value.  The local copy is refreshed and, if the process is
  sensitive to the signal (or its wait condition becomes true), an internal
  ``PROCESS_RUN`` event is scheduled for the *next* phase — guaranteeing
  that **all** simultaneous signal updates land before the process body
  resumes, while their order among themselves stays irrelevant;
* internal ``PROCESS_RUN`` events — the sequential statement part resumes
  and executes until the next ``wait``;
* internal ``PROCESS_TIMEOUT`` events — a ``wait ... for`` expired.  A
  pending timeout is *cancelled* when the process is woken earlier; since
  events cannot be unsent in a distributed system, cancellation uses a
  monotonically increasing token: stale timeout events are ignored.

The actual sequential behaviour is delegated to a :class:`ProcessBody`.
A body is handed its own :class:`ProcessLP` and may use only ``now``,
``now_fs``, ``read``, ``assign``, ``assign_waveform`` and ``event_on``:
it reads signals through the LP-local copies and emits assignments, and
never touches the event machinery, so the same body runs identically
under every synchronization protocol.  Bodies with plain-data state
(combinational functions, clocked state machines, the interpreted VHDL
frontend) are checkpointable and may run optimistically; bodies wrapping
a live Python generator cannot save their state — exactly the paper's
"heavy-state processes" — and are pinned to conservative mode by the
engines.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, FrozenSet, Iterable, Optional,
                    Sequence, Tuple)

from ..core.event import Event, EventKind
from ..core.lp import LogicalProcess
from ..core.record import Record
from ..core.vtime import PHASE_ASSIGN, VirtualTime
from .signal import Assignment


class Wait(Record):
    """The suspension condition returned by a process body.

    ``on`` is the set of signal LP ids whose events wake the process;
    ``until`` an optional predicate over the process LP that must also
    hold; ``for_fs`` an optional timeout in femtoseconds (0 means "next
    delta cycle").  ``Wait.forever()`` suspends the process for good.
    """

    __slots__ = ("on", "until", "for_fs")

    def __init__(self, on: FrozenSet[int] = frozenset(),
                 until: Optional[Callable[[ProcessLP], bool]] = None,
                 for_fs: Optional[int] = None) -> None:
        self.on = on
        self.until = until
        self.for_fs = for_fs

    @staticmethod
    def forever() -> "Wait":
        return Wait()

    @property
    def is_forever(self) -> bool:
        return not self.on and self.until is None and self.for_fs is None


def sid(signal: Any) -> int:
    """Normalize a signal reference (SignalLP or raw id) to an LP id."""
    lp_id = getattr(signal, "lp_id", signal)
    if not isinstance(lp_id, int):
        raise TypeError(f"not a signal reference: {signal!r}")
    return lp_id


def sids(signals: Iterable[Any]) -> Tuple[int, ...]:
    return tuple(sid(s) for s in signals)


class ProcessBody:
    """Abstract sequential behaviour of a VHDL process."""

    #: Whether the body state can be captured for Time Warp.
    checkpointable: bool = True

    def start(self, api: ProcessLP) -> Wait:
        """Initial execution (VHDL runs every process once at time 0)."""
        raise NotImplementedError

    def resume(self, api: ProcessLP) -> Wait:
        """Continue after a wait was satisfied; run to the next wait."""
        raise NotImplementedError

    def snapshot(self) -> Any:
        """Capture body state (plain data).  Default: stateless."""
        return None

    def restore(self, snap: Any) -> None:
        """Restore body state captured by :meth:`snapshot`."""

    def reads(self) -> Optional[Sequence[int]]:
        """Signal ids this body reads, for auto-wiring (None = unknown)."""
        return None

    def drives(self) -> Optional[Sequence[int]]:
        """Signal ids this body drives, for auto-wiring (None = unknown)."""
        return None


class ProcessLP(LogicalProcess):
    """The LP for one VHDL process statement.

    Its body is called with the LP itself.  A body may use ``now``,
    ``now_fs``, :meth:`read`, :meth:`assign`, :meth:`assign_waveform`
    and :meth:`event_on`, and nothing else.
    """

    state_attrs = ("locals_", "wait", "timeout_token", "wake_pending",
                   "last_events", "body_state", "halted")
    #: A signal update arriving at phase 3k+2 resumes the body at 3k+3,
    #: so any caused assignment lags the arrival by >= 1 phase.
    react_lookahead_phases = 1

    def __init__(self, name: str, body: ProcessBody) -> None:
        super().__init__(name)
        self.body = body
        #: signal LP id -> local copy of the effective value.
        self.locals_: Dict[int, Any] = {}
        #: Current suspension condition (None until first run).
        self.wait: Optional[Wait] = None
        #: Cancellation token for the pending timeout, if any.
        self.timeout_token: int = 0
        #: Virtual time of an already-scheduled PROCESS_RUN (dedupe).
        self.wake_pending: Optional[VirtualTime] = None
        #: Signals whose update triggered the pending/current run.
        self.last_events: FrozenSet[int] = frozenset()
        self.body_state: Any = None
        self.halted = False

    @property
    def checkpointable(self) -> bool:  # type: ignore[override]
        return self.body.checkpointable

    # ------------------------------------------------------------------
    # What a body may use
    # ------------------------------------------------------------------
    @property
    def now_fs(self) -> int:
        return self.now.pt

    def read(self, signal_id: int) -> Any:
        """Current local copy of a signal's effective value."""
        return self.locals_[signal_id]

    def assign(self, signal_id: int, value: Any, after: int = 0,
               transport: bool = False, reject: Optional[int] = None) -> None:
        """Schedule a signal assignment ``signal <= value after ...``."""
        self.assign_waveform(signal_id, ((value, after),), transport, reject)

    def assign_waveform(self, signal_id: int,
                        waveform: Sequence[Tuple[Any, int]],
                        transport: bool = False,
                        reject: Optional[int] = None) -> None:
        """Schedule a multi-element waveform assignment."""
        self.send(signal_id, self.now, EventKind.SIGNAL_ASSIGN,
                  Assignment(tuple(waveform), transport, reject))

    def event_on(self, signal_id: int) -> bool:
        """VHDL ``sig'event``: did this signal change at the current time?

        True while handling the run triggered by that signal's update.
        """
        return signal_id in self.last_events

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_input(self, signal_id: int, initial: Any) -> None:
        """Declare that this process reads ``signal_id``."""
        self.locals_[signal_id] = initial

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def on_init(self) -> None:
        """VHDL elaboration: run every process once until its first wait."""
        self._run(self.body.start, frozenset())

    def simulate(self, event: Event) -> None:
        if event.kind is EventKind.SIGNAL_UPDATE:
            self._on_update(event)
        elif event.kind is EventKind.PROCESS_RUN:
            self._on_run(event)
        elif event.kind is EventKind.PROCESS_TIMEOUT:
            self._on_timeout(event)
        else:
            raise ValueError(
                f"process {self.name} received unexpected {event.kind}")

    def _on_update(self, event: Event) -> None:
        signal_id, value = event.payload
        self.locals_[signal_id] = value
        if self.halted or self.wait is None:
            return
        if signal_id not in self.wait.on:
            return
        # The run must happen strictly after all simultaneous updates, so
        # it is scheduled one phase later (paper Sec. 3.3, Process:Update).
        wake_time = self.now.next_phase()
        if self.wake_pending == wake_time:
            # Another update at this same virtual time already woke us;
            # just record the additional triggering signal.
            self.last_events = self.last_events | {signal_id}
            return
        if self.wait.until is not None:
            self.last_events = frozenset({signal_id})
            if not self.wait.until(self):
                self.last_events = frozenset()
                return
        self.last_events = frozenset({signal_id})
        self.wake_pending = wake_time
        self.timeout_token += 1  # cancel any pending timeout
        self.schedule(wake_time, EventKind.PROCESS_RUN)

    def _on_run(self, event: Event) -> None:
        if self.halted:
            return
        self.wake_pending = None
        self._run(self.body.resume, self.last_events)

    def _on_timeout(self, event: Event) -> None:
        if self.halted:
            return
        if event.payload != self.timeout_token:
            return  # cancelled: the process was woken before the timeout
        self.last_events = frozenset()
        self._run(self.body.resume, frozenset())

    def _run(self, step: Callable[[ProcessLP], Wait],
             triggers: FrozenSet[int]) -> None:
        """Execute the body to its next wait and arm the suspension."""
        self.last_events = triggers
        wait = step(self)
        self.body_state = self.body.snapshot()
        self.wait = wait
        self.last_events = frozenset()
        if wait.is_forever:
            self.halted = True
            return
        if wait.for_fs is not None:
            self.timeout_token += 1
            if wait.for_fs == 0:
                when = self.now.next_delta()
            else:
                when = self.now.advance(wait.for_fs, PHASE_ASSIGN)
            self.schedule(when, EventKind.PROCESS_TIMEOUT, self.timeout_token)

    # ------------------------------------------------------------------
    # Fast checkpointing.  Local values and body state are plain data
    # with immutable leaves, so shallow container copies suffice; the
    # body's own state is re-injected on restore.
    # ------------------------------------------------------------------
    def snapshot(self) -> Any:
        return (dict(self.locals_), self.wait, self.timeout_token,
                self.wake_pending, self.last_events, self.body_state,
                self.halted)

    def restore(self, snap: Any) -> None:
        (locals_, wait, timeout_token, wake_pending, last_events,
         body_state, halted) = snap
        self.locals_ = dict(locals_)
        self.wait = wait
        self.timeout_token = timeout_token
        self.wake_pending = wake_pending
        self.last_events = last_events
        self.body_state = body_state
        self.halted = halted
        self.body.restore(body_state)


# ---------------------------------------------------------------------------
# Concrete bodies
# ---------------------------------------------------------------------------
class CombinationalBody(ProcessBody):
    """``out <= f(inputs)`` — a gate or any pure combinational block.

    ``fn`` maps a dict ``{signal_id: value}`` of the input local copies to
    a dict ``{signal_id: value}`` of output assignments, all delayed by
    ``delay_fs`` (0 gives delta-delay behaviour).
    """

    checkpointable = True

    def __init__(self, inputs: Sequence[Any], outputs: Sequence[Any],
                 fn: Callable[..., Any],
                 delay_fs: int = 0, transport: bool = False) -> None:
        self.inputs = sids(inputs)
        self.outputs = sids(outputs)
        self.fn = fn
        self.delay_fs = delay_fs
        self.transport = transport

    def reads(self) -> Sequence[int]:
        return self.inputs

    def drives(self) -> Sequence[int]:
        return self.outputs

    def _evaluate(self, api: ProcessLP) -> None:
        values = [api.read(s) for s in self.inputs]
        result = self.fn(*values)
        if len(self.outputs) == 1:
            result = (result,)
        for out_sig, value in zip(self.outputs, result):
            api.assign(out_sig, value, after=self.delay_fs,
                       transport=self.transport)

    def start(self, api: ProcessLP) -> Wait:
        self._evaluate(api)
        return Wait(on=frozenset(self.inputs))

    def resume(self, api: ProcessLP) -> Wait:
        self._evaluate(api)
        return Wait(on=frozenset(self.inputs))


class ClockedBody(ProcessBody):
    """An edge-triggered register/state machine.

    ``fn(state, inputs, api)`` is called on each active clock edge with the
    mutable ``state`` dict and the input local copies; it returns the
    output assignments.  The state dict is plain data, so the body is
    checkpointable and may run optimistically — although the paper's mixed
    heuristic deliberately pins clocked components conservative.
    """

    checkpointable = True

    def __init__(self, clock: Any, inputs: Sequence[Any],
                 outputs: Sequence[Any],
                 fn: Callable[[Dict, Dict[int, Any], ProcessLP],
                              Dict[int, Any]],
                 initial_state: Optional[Dict] = None,
                 rising: bool = True, delay_fs: int = 0) -> None:
        self.clock = sid(clock)
        self.inputs = sids(inputs)
        self.outputs = sids(outputs)
        self.fn = fn
        self.state: Dict = dict(initial_state or {})
        self.rising = rising
        self.delay_fs = delay_fs

    def reads(self) -> Sequence[int]:
        return (self.clock,) + self.inputs

    def drives(self) -> Sequence[int]:
        return self.outputs

    def _edge(self, api: ProcessLP) -> bool:
        if not api.event_on(self.clock):
            return False
        value = api.read(self.clock)
        try:
            level = value.to_bool()
        except (AttributeError, ValueError):
            return False
        return level if self.rising else not level

    def start(self, api: ProcessLP) -> Wait:
        return Wait(on=frozenset({self.clock}))

    def resume(self, api: ProcessLP) -> Wait:
        if self._edge(api):
            inputs = {sig: api.read(sig) for sig in self.inputs}
            for out_sig, value in self.fn(self.state, inputs, api).items():
                api.assign(out_sig, value, after=self.delay_fs)
        return Wait(on=frozenset({self.clock}))

    def snapshot(self) -> Any:
        return dict(self.state)

    def restore(self, snap: Any) -> None:
        if snap is not None:
            self.state = dict(snap)


class GeneratorBody(ProcessBody):
    """A process written as a Python generator (testbenches, stimuli).

    The generator yields :class:`Wait` objects.  A live generator frame
    cannot be checkpointed, so this body is **not** checkpointable: the
    engines pin such LPs to conservative mode, mirroring the paper's
    remark that heavy-state processes cannot save their state.
    """

    checkpointable = False

    def __init__(self, gen_fn: Callable[[ProcessLP], Iterable[Wait]]):
        self.gen_fn = gen_fn
        self._gen = None

    def start(self, api: ProcessLP) -> Wait:
        self._gen = iter(self.gen_fn(api))
        return self._advance()

    def resume(self, api: ProcessLP) -> Wait:
        return self._advance()

    def _advance(self) -> Wait:
        try:
            wait = next(self._gen)
        except StopIteration:
            return Wait.forever()
        if not isinstance(wait, Wait):
            raise TypeError(
                f"generator process must yield Wait, got {type(wait)}")
        return wait


class ClockGeneratorBody(ProcessBody):
    """A free-running clock: ``clk <= not clk after period/2``.

    Self-contained (no inputs), so it drives the whole simulation forward;
    ``cycles`` bounds the run.  Plain-data state: checkpointable.
    """

    checkpointable = True

    def __init__(self, clock: Any, half_period_fs: int, cycles: int,
                 low, high) -> None:
        self.clock = sid(clock)
        self.half_period_fs = half_period_fs
        self.edges_left = 2 * cycles
        self.level = False
        self.low = low
        self.high = high

    def reads(self) -> Sequence[int]:
        return ()

    def drives(self) -> Sequence[int]:
        return (self.clock,)

    def start(self, api: ProcessLP) -> Wait:
        api.assign(self.clock, self.low)
        return Wait(for_fs=self.half_period_fs)

    def resume(self, api: ProcessLP) -> Wait:
        if self.edges_left <= 0:
            return Wait.forever()
        self.edges_left -= 1
        self.level = not self.level
        api.assign(self.clock, self.high if self.level else self.low)
        return Wait(for_fs=self.half_period_fs)

    def snapshot(self) -> Any:
        return (self.edges_left, self.level)

    def restore(self, snap: Any) -> None:
        if snap is not None:
            self.edges_left, self.level = snap
