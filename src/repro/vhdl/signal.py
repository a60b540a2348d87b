"""VHDL signals as logical processes.

VHDL signals are not simple channels (paper Sec. 3.1): a signal may have
multiple sources, each with a *driver* holding a projected output waveform,
and a resolution function combining the driving values.  In a distributed
simulation there is no shared memory to hold the signal, so the paper maps
**each signal to its own LP**: the signal LP owns one driver per source and
broadcasts new effective values to every process that reads the signal.

The signal LP implements three phases of the distributed VHDL cycle:

* **Assign** (``lt % 3 == 0``): a ``SIGNAL_ASSIGN`` event from a process LP
  updates the corresponding driver's projected waveform according to the
  delay mechanism (transport / inertial with pulse rejection), and for each
  new transaction schedules an internal ``SIGNAL_DRIVE`` event for the
  *Driving value* phase of the cycle in which the transaction matures.
* **Driving value** (``lt % 3 == 1``): matured transactions update the
  drivers' current driving values.  If the signal is resolved, an internal
  ``SIGNAL_RESOLVE`` event is scheduled for the next phase (another driver
  may mature a transaction at this same virtual time, so resolution must
  wait until all of them have).  A single-source signal short-circuits:
  its driving value *is* the effective value and is broadcast directly.
* **Effective value** (``lt % 3 == 2``): the resolution function is applied
  over all driving values and, if the result differs from the current
  effective value, it is broadcast to all reader processes.

Because duplicate internal events at one virtual time are idempotent
(maturing no transaction, or resolving to an unchanged value), the signal
LP never needs to deduplicate its self-schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.event import Event, EventKind
from ..core.lp import LogicalProcess
from ..core.record import Record
from ..core.vtime import PHASE_ASSIGN, PHASE_DRIVING, VirtualTime
from .values import StdLogic, resolve_column, resolve_vectors


class Assignment(Record):
    """Payload of a ``SIGNAL_ASSIGN`` event.

    ``waveform`` is the sequence of ``(value, after_fs)`` elements of the
    signal assignment statement, in increasing ``after_fs`` order.
    ``transport`` selects the delay mechanism; ``reject`` is the inertial
    pulse rejection limit in fs (``None`` means the default: the delay of
    the first waveform element).
    """

    __slots__ = ("waveform", "transport", "reject")

    def __init__(self, waveform: Tuple[Tuple[Any, int], ...],
                 transport: bool = False,
                 reject: Optional[int] = None) -> None:
        self.waveform = waveform
        self.transport = transport
        self.reject = reject


@dataclass
class _Transaction:
    """A pending transaction in a driver's projected output waveform."""

    pt: int
    value: Any

    def key(self) -> int:
        return self.pt


class Driver:
    """One source's contribution to a signal: current value + waveform."""

    __slots__ = ("current", "waveform")

    def __init__(self, initial: Any) -> None:
        self.current = initial
        self.waveform: List[_Transaction] = []

    def mature(self, pt: int) -> bool:
        """Apply all transactions due at physical time ``pt``.

        Returns True if any transaction matured (whether or not the
        driving value actually changed — VHDL considers the driver
        *active* either way).
        """
        matured = False
        while self.waveform and self.waveform[0].pt <= pt:
            self.current = self.waveform.pop(0).value
            matured = True
        return matured

    def next_transaction_time(self) -> Optional[int]:
        return self.waveform[0].pt if self.waveform else None

    def update(self, now_pt: int, assignment: Assignment) -> List[int]:
        """Fold an assignment into the projected waveform (LRM marking).

        Returns the physical times of the new transactions, so the signal
        LP can schedule the matching ``SIGNAL_DRIVE`` events.
        """
        if not assignment.waveform:
            return []
        new = [_Transaction(now_pt + after, value)
               for value, after in assignment.waveform]
        first_time = new[0].pt
        # 1. Old transactions at or after the first new one are deleted.
        kept = [t for t in self.waveform if t.pt < first_time]
        if not assignment.transport:
            # 2. Inertial: old transactions inside the rejection window
            #    (first_time - reject, first_time) are deleted unless they
            #    form a run, immediately preceding the new transaction,
            #    whose values all equal the first new value.
            reject = assignment.reject
            if reject is None:
                reject = assignment.waveform[0][1]
            window_start = first_time - reject
            survivors: List[_Transaction] = [
                t for t in kept if t.pt <= window_start]
            window = [t for t in kept if t.pt > window_start]
            run: List[_Transaction] = []
            for t in reversed(window):
                if t.value == new[0].value:
                    run.append(t)
                else:
                    break
            survivors.extend(reversed(run))
            kept = survivors
        self.waveform = sorted(kept + new, key=_Transaction.key)
        return [t.pt for t in new]


def resolve_values(values: Sequence[Any],
                   resolution: Optional[Callable[[Sequence[Any]], Any]],
                   ) -> Any:
    """Combine driving values into an effective value.

    With an explicit resolution function, defer to it.  Otherwise use the
    IEEE 1164 resolution, element-wise for vectors.  A single driver with
    no resolution function passes through unchanged.
    """
    if resolution is not None:
        return resolution(values)
    if len(values) == 1:
        return values[0]
    first = values[0]
    if isinstance(first, StdLogic):
        return resolve_column(values)
    if isinstance(first, tuple):
        return resolve_vectors(values)
    raise TypeError(
        f"signal with {len(values)} drivers of unresolvable type "
        f"{type(first).__name__}; provide a resolution function")


class SignalLP(LogicalProcess):
    """The LP for one VHDL signal (scalar or vector)."""

    state_attrs = ("drivers", "effective", "history")
    #: An assignment arriving at phase 3k produces effective-value
    #: broadcasts no earlier than phase 3k+2: at least one phase of
    #: reaction lookahead (in fact two, but one is what every kernel LP
    #: can promise uniformly).
    react_lookahead_phases = 1

    def __init__(self, name: str, initial: Any,
                 resolution: Optional[Callable] = None,
                 traced: bool = False) -> None:
        super().__init__(name)
        self.initial = initial
        self.resolution = resolution
        self.traced = traced
        #: Reader process LP ids (fan-out); wired by the kernel.
        self.readers: List[int] = []
        #: source LP id -> Driver; created lazily per registered source.
        self.drivers: Dict[int, Driver] = {}
        self.effective = initial
        #: Committed effective-value changes [(vt, value)] when traced.
        self.history: List[Tuple[VirtualTime, Any]] = []

    # ------------------------------------------------------------------
    # Wiring (done at elaboration, before simulation starts)
    # ------------------------------------------------------------------
    def add_source(self, src_lp_id: int) -> None:
        """Declare that process ``src_lp_id`` drives this signal."""
        if src_lp_id not in self.drivers:
            self.drivers[src_lp_id] = Driver(self.initial)

    def add_reader(self, dst_lp_id: int) -> None:
        if dst_lp_id not in self.readers:
            self.readers.append(dst_lp_id)

    @property
    def is_resolved(self) -> bool:
        """Whether resolution must run in a separate phase."""
        return self.resolution is not None or len(self.drivers) > 1

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, event: Event) -> None:
        if event.kind is EventKind.SIGNAL_ASSIGN:
            self._on_assign(event)
        elif event.kind is EventKind.SIGNAL_DRIVE:
            self._on_drive()
        elif event.kind is EventKind.SIGNAL_RESOLVE:
            self._on_resolve()
        else:
            raise ValueError(
                f"signal {self.name} received unexpected {event.kind}")

    def _on_assign(self, event: Event) -> None:
        """Assign phase: fold the assignment into the source's driver."""
        driver = self.drivers.get(event.src)
        if driver is None:
            raise KeyError(
                f"{event.src} is not a declared source of signal "
                f"{self.name}")
        for pt in driver.update(self.now.pt, event.payload):
            self.schedule(self._drive_time(pt), EventKind.SIGNAL_DRIVE)

    def _drive_time(self, pt: int) -> VirtualTime:
        """Virtual time of the Driving phase in which ``pt`` matures."""
        if pt == self.now.pt:
            return self.now.with_phase(PHASE_DRIVING) \
                if self.now.lt % 3 == PHASE_ASSIGN else self.now.next_phase()
        return self.now.advance(pt - self.now.pt, PHASE_DRIVING)

    def _on_drive(self) -> None:
        """Driving phase: mature transactions due now."""
        now = self.now.pt
        any_active = False
        for driver in self.drivers.values():
            waveform = driver.waveform
            if waveform and waveform[0].pt <= now:
                driver.mature(now)
                any_active = True
        if not any_active:
            return  # duplicate drive event; nothing due at this time
        if self.is_resolved:
            # Another driver may mature a transaction at this same virtual
            # time; resolution must wait for all of them (paper Sec. 3.3).
            self.schedule(self.now.next_phase(), EventKind.SIGNAL_RESOLVE)
        else:
            self._publish(next(iter(self.drivers.values())).current,
                          self.now.next_phase())

    def _on_resolve(self) -> None:
        """Effective phase: resolve all drivers and broadcast."""
        driving = [d.current for d in self.drivers.values()]
        value = resolve_values(driving, self.resolution)
        self._publish(value, self.now)

    def _publish(self, value: Any, when: VirtualTime) -> None:
        """Broadcast a new effective value if it changed (a VHDL *event*)."""
        if value == self.effective:
            return
        self.effective = value
        if self.traced:
            self.history.append((when, value))
        for reader in self.readers:
            self.send(reader, when, EventKind.SIGNAL_UPDATE,
                      (self.lp_id, value))

    # ------------------------------------------------------------------
    # Fast checkpointing.  Values are immutable (interned StdLogic or
    # tuples), so shallow copies of the containers are deep enough; the
    # history is append-only, so the snapshot stores just its length and
    # restore truncates.  This keeps Time Warp's per-event snapshot cost
    # proportional to the number of drivers, not to the trace length.
    # ------------------------------------------------------------------
    def snapshot(self) -> Any:
        return (
            {src: (driver.current,
                   tuple((t.pt, t.value) for t in driver.waveform))
             for src, driver in self.drivers.items()},
            self.effective,
            len(self.history),
        )

    def restore(self, snap: Any) -> None:
        driver_state, effective, history_len = snap
        for src, (current, waveform) in driver_state.items():
            driver = self.drivers[src]
            driver.current = current
            driver.waveform = [_Transaction(pt, value)
                               for pt, value in waveform]
        self.effective = effective
        del self.history[history_len:]

    def durable_state(self) -> Any:
        # The cheap snapshot keeps only the history *length* (truncate-
        # on-restore works because rollback restores into the same live
        # list).  A cross-process restore starts from an empty list, so
        # the durable image must carry the entries themselves.
        return (self.snapshot(), self._seq, list(self.history))

    def restore_durable(self, state: Any) -> None:
        snap, seq, history = state
        self.history = list(history)
        self.restore(snap)  # snapshot length == len(history): keeps all
        self._seq = max(self._seq, seq)

    def trace(self) -> List[Tuple[VirtualTime, Any]]:
        """The committed effective-value change history (when traced)."""
        return list(self.history)
