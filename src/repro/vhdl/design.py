"""Design builder: construct a flattened VHDL model programmatically.

After elaboration the VHDL hierarchy is a bi-partite graph of processes
interconnected by signals (paper Sec. 3).  :class:`Design` is the builder
for that graph.  It registers each signal and each process as an LP in a
:class:`~repro.core.model.Model`, declares the channels (signal -> every
reader process, process -> every driven signal), seeds the processes'
local copies with the signals' initial values, and checks the wiring.

The same ``Design`` can then be run by any engine — sequential or any of
the parallel protocols — via :mod:`repro.vhdl.kernel`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..core.model import Model, SyncMode
from .process import (ClockGeneratorBody, GeneratorBody, ProcessBody,
                      ProcessLP, sid, sids)
from .signal import SignalLP
from .values import SL_0, SL_1, sl


class Design:
    """A flattened VHDL design under construction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.model = Model()
        self.signals: List[SignalLP] = []
        self.processes: List[ProcessLP] = []
        self._by_name: Dict[str, Any] = {}
        self._elaborated = False

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def signal(self, name: str, initial: Any,
               resolution: Optional[Callable] = None,
               traced: bool = False) -> SignalLP:
        """Declare a signal; returns its LP (usable as a handle)."""
        self._check_name(name)
        lp = SignalLP(name, initial, resolution, traced)
        self.model.add_lp(lp)
        self.signals.append(lp)
        self._by_name[name] = lp
        return lp

    def signal_vector(self, name: str, width: int, initial=None,
                      traced: bool = False) -> List[SignalLP]:
        """Declare ``width`` scalar signals ``name[i]`` (bit-blasted bus).

        Gate-level netlists use individual wires per bit, which is also
        what gives the paper its large LP counts.
        """
        if initial is None:
            initial = [SL_0] * width
        return [self.signal(f"{name}[{i}]", sl(initial[i]), traced=traced)
                for i in range(width)]

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def process(self, name: str, body: ProcessBody,
                reads: Optional[Iterable[Any]] = None,
                drives: Optional[Iterable[Any]] = None,
                mode: SyncMode = SyncMode.OPTIMISTIC) -> ProcessLP:
        """Declare a process with the given body.

        ``reads``/``drives`` may be omitted when the body declares its own
        wiring (combinational and clocked bodies do); generator bodies
        must wire explicitly.  Non-checkpointable bodies are forced into
        conservative mode regardless of ``mode``.
        """
        self._check_name(name)
        read_ids = sids(reads) if reads is not None else body.reads()
        drive_ids = sids(drives) if drives is not None else body.drives()
        if read_ids is None or drive_ids is None:
            raise ValueError(
                f"process {name}: body does not declare its wiring; "
                f"pass reads=/drives= explicitly")
        if not body.checkpointable:
            mode = SyncMode.CONSERVATIVE
        lp = ProcessLP(name, body)
        self.model.add_lp(lp, mode)
        self.processes.append(lp)
        self._by_name[name] = lp
        for signal_id in read_ids:
            signal = self._signal_by_id(signal_id)
            signal.add_reader(lp.lp_id)
            lp.add_input(signal_id, signal.initial)
            self.model.connect(signal, lp)
        # NOTE: a gate's propagation delay is deliberately NOT declared
        # as channel lookahead.  The message on the process->signal
        # channel is the *assignment* event, which arrives one phase
        # after the triggering update; the delay only matures inside the
        # signal LP's projected waveform.  Promising the full delay on
        # the channel would over-promise and break conservative safety.
        for signal_id in drive_ids:
            signal = self._signal_by_id(signal_id)
            signal.add_source(lp.lp_id)
            self.model.connect(lp, signal)
        return lp

    def clock(self, name: str, signal: Any, period_fs: int, cycles: int,
              low=SL_0, high=SL_1,
              mode: SyncMode = SyncMode.CONSERVATIVE) -> ProcessLP:
        """A free-running clock generator driving ``signal``.

        Defaults to conservative mode: the paper's mixed heuristic keeps
        the very persistent clock conservative.
        """
        if period_fs % 2:
            raise ValueError("clock period must be an even number of fs")
        body = ClockGeneratorBody(sid(signal), period_fs // 2, cycles,
                                  low, high)
        return self.process(name, body, mode=mode)

    def stimulus(self, name: str,
                 gen_fn: Callable, reads: Iterable[Any] = (),
                 drives: Iterable[Any] = ()) -> ProcessLP:
        """A generator-based testbench process (conservative-only)."""
        return self.process(name, GeneratorBody(gen_fn),
                            reads=reads, drives=drives,
                            mode=SyncMode.CONSERVATIVE)

    # ------------------------------------------------------------------
    # Elaboration & queries
    # ------------------------------------------------------------------
    def elaborate(self) -> Model:
        """Finalize the design; validates wiring and returns the model.

        Single-use: elaboration hands the mutable LP graph to an
        engine, so a second ``elaborate()`` on the same ``Design``
        would silently reuse mutated LP state (stale projected
        waveforms, consumed generator bodies).  Re-running a design
        means re-instantiating it — snapshot it with
        :meth:`artifact` and call ``instantiate()`` per run.
        """
        if self._elaborated:
            raise RuntimeError(
                f"design {self.name!r} was already elaborated; a Design "
                f"carries mutable LP state and is single-use.  Snapshot "
                f"it with design.artifact() and instantiate() a fresh "
                f"runtime per run.")
        for signal in self.signals:
            if not signal.drivers and signal.readers:
                # A read-only signal simply keeps its initial value; that
                # is legal VHDL (an undriven input), not an error.
                pass
        self.model.validate()
        self._elaborated = True
        return self.model

    def artifact(self, content_hash: Optional[str] = None,
                 meta: Optional[Dict[str, Any]] = None):
        """Snapshot this design into an immutable, picklable
        :class:`~repro.vhdl.artifact.DesignArtifact`.

        The artifact content-addresses the LP graph (structural
        manifest hash, computed on first read, unless
        ``content_hash`` is given) and its
        ``instantiate()`` yields a fresh mutable runtime per run —
        the supported way to simulate one design many times.
        """
        from .artifact import DesignArtifact
        return DesignArtifact.from_design(self, content_hash=content_hash,
                                          meta=meta)

    def __getitem__(self, name: str):
        return self._by_name[name]

    def _signal_by_id(self, signal_id: int) -> SignalLP:
        lp = self.model.lp(signal_id)
        if not isinstance(lp, SignalLP):
            raise TypeError(f"LP {signal_id} ({lp.name}) is not a signal")
        return lp

    def _check_name(self, name: str) -> None:
        if name in self._by_name:
            raise ValueError(f"duplicate name {name!r} in design {self.name}")

    # Statistics used by the evaluation section (circuit size table).
    @property
    def lp_count(self) -> int:
        return len(self.model)

    def size_report(self) -> Dict[str, int]:
        return {
            "signals": len(self.signals),
            "processes": len(self.processes),
            "lps": self.lp_count,
            "channels": len(self.model.channels),
        }
