"""Gate-level netlist construction on top of the VHDL kernel.

Every gate becomes one combinational VHDL process LP and every wire one
signal LP, giving the bi-partite LP graphs whose sizes the paper reports
(553–~1800 LPs).  Registers are edge-triggered processes tagged
conservative, implementing the paper's *mixed* heuristic ("synchronous
components ... conservative, asynchronous ones ... optimistic").

Datapath helpers (ripple-carry adders, array multipliers) build the
arithmetic used by the IIR and DCT workloads.  All datapath arithmetic is
modulo ``2**width`` (two's-complement wrap-around), which lets behavioural
models reproduce gate-level results bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..core.model import SyncMode
from ..core.vtime import NS
from ..vhdl.design import Design
from ..vhdl.process import ClockedBody, CombinationalBody, ProcessLP
from ..vhdl.signal import SignalLP
from ..vhdl.values import SL_0, StdLogic, sl
from .bodies import DffCapture

Wire = SignalLP


def _and2(a: StdLogic, b: StdLogic) -> StdLogic:
    return a & b


def _or2(a: StdLogic, b: StdLogic) -> StdLogic:
    return a | b


def _xor2(a: StdLogic, b: StdLogic) -> StdLogic:
    return a ^ b


def _nand2(a: StdLogic, b: StdLogic) -> StdLogic:
    return ~(a & b)


def _nor2(a: StdLogic, b: StdLogic) -> StdLogic:
    return ~(a | b)


def _xnor2(a: StdLogic, b: StdLogic) -> StdLogic:
    return ~(a ^ b)


def _not1(a: StdLogic) -> StdLogic:
    return ~a


def _buf1(a: StdLogic) -> StdLogic:
    return a


GATE_FUNCTIONS: Dict[str, Callable[..., StdLogic]] = {
    "and": _and2, "or": _or2, "xor": _xor2, "nand": _nand2,
    "nor": _nor2, "xnor": _xnor2, "not": _not1, "buf": _buf1,
}


class Netlist:
    """A gate-level circuit builder bound to a :class:`Design`.

    ``delay_fs`` is the propagation delay given to every combinational
    gate; 0 produces pure delta-cycle behaviour (the paper's
    "0 Delay" FSM benchmark).
    """

    def __init__(self, design: Design, delay_fs: int = 0) -> None:
        self.design = design
        self.delay_fs = delay_fs
        self._counter = 0
        self.gate_count = 0
        self.register_count = 0

    # ------------------------------------------------------------------
    # Wires
    # ------------------------------------------------------------------
    def wire(self, name: Optional[str] = None, init=SL_0,
             traced: bool = False) -> Wire:
        return self.design.signal(name or self._fresh("w"), sl(init),
                                  traced=traced)

    def bus(self, name: str, width: int, init: int = 0,
            traced: bool = False) -> List[Wire]:
        """``width`` wires, index 0 = LSB, initialised from ``init``."""
        return [self.wire(f"{name}[{i}]", sl((init >> i) & 1), traced=traced)
                for i in range(width)]

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------
    def gate(self, kind: str, inputs: Sequence[Wire], output: Wire,
             name: Optional[str] = None,
             delay_fs: Optional[int] = None) -> ProcessLP:
        fn = GATE_FUNCTIONS[kind]
        delay = self.delay_fs if delay_fs is None else delay_fs
        body = CombinationalBody(inputs, [output], fn, delay_fs=delay)
        self.gate_count += 1
        return self.design.process(name or self._fresh(kind), body,
                                   mode=SyncMode.OPTIMISTIC)

    def and_(self, a: Wire, b: Wire, y: Optional[Wire] = None) -> Wire:
        y = y or self.wire()
        self.gate("and", [a, b], y)
        return y

    def or_(self, a: Wire, b: Wire, y: Optional[Wire] = None) -> Wire:
        y = y or self.wire()
        self.gate("or", [a, b], y)
        return y

    def xor_(self, a: Wire, b: Wire, y: Optional[Wire] = None) -> Wire:
        y = y or self.wire()
        self.gate("xor", [a, b], y)
        return y

    def xnor_(self, a: Wire, b: Wire, y: Optional[Wire] = None) -> Wire:
        y = y or self.wire()
        self.gate("xnor", [a, b], y)
        return y

    def not_(self, a: Wire, y: Optional[Wire] = None) -> Wire:
        y = y or self.wire()
        self.gate("not", [a], y)
        return y

    # ------------------------------------------------------------------
    # Registers
    # ------------------------------------------------------------------
    def dff(self, clk: Wire, d: Wire, q: Optional[Wire] = None,
            name: Optional[str] = None, init=SL_0) -> Wire:
        """A rising-edge D flip-flop; conservative under the mixed config."""
        q = q or self.wire(init=init)
        body = ClockedBody(clock=clk, inputs=[d], outputs=[q],
                           fn=DffCapture(d_id=d.lp_id, q_id=q.lp_id))
        self.register_count += 1
        self.design.process(name or self._fresh("dff"), body,
                            mode=SyncMode.CONSERVATIVE)
        return q

    def register(self, clk: Wire, d_bus: Sequence[Wire],
                 q_bus: Optional[Sequence[Wire]] = None,
                 name: Optional[str] = None,
                 init: int = 0) -> List[Wire]:
        """A bank of D flip-flops, one per bit."""
        if q_bus is None:
            q_bus = [self.wire(init=sl((init >> i) & 1))
                     for i in range(len(d_bus))]
        base = name or self._fresh("reg")
        for i, (d, q) in enumerate(zip(d_bus, q_bus)):
            self.dff(clk, d, q, name=f"{base}.b{i}",
                     init=sl((init >> i) & 1))
        return list(q_bus)

    # ------------------------------------------------------------------
    # Datapath blocks (all modulo 2**width)
    # ------------------------------------------------------------------
    def half_adder(self, a: Wire, b: Wire) -> tuple:
        s = self.xor_(a, b)
        c = self.and_(a, b)
        return s, c

    def full_adder(self, a: Wire, b: Wire, cin: Wire) -> tuple:
        axb = self.xor_(a, b)
        s = self.xor_(axb, cin)
        c1 = self.and_(a, b)
        c2 = self.and_(axb, cin)
        c = self.or_(c1, c2)
        return s, c

    def ripple_adder(self, a_bus: Sequence[Wire], b_bus: Sequence[Wire],
                     ) -> List[Wire]:
        """``(a + b) mod 2**width``; the final carry is dropped."""
        if len(a_bus) != len(b_bus):
            raise ValueError("adder operands must have equal width")
        total: List[Wire] = []
        carry: Optional[Wire] = None
        for i, (a, b) in enumerate(zip(a_bus, b_bus)):
            if carry is None:
                s, carry = self.half_adder(a, b)
            elif i == len(a_bus) - 1:
                # Last bit: the carry out is discarded (mod arithmetic),
                # so a 3-input XOR suffices.
                s = self.xor_(self.xor_(a, b), carry)
            else:
                s, carry = self.full_adder(a, b, carry)
            total.append(s)
        return total

    def subtractor(self, a_bus: Sequence[Wire],
                   b_bus: Sequence[Wire]) -> List[Wire]:
        """``(a - b) mod 2**width`` via two's complement: a + ~b + 1."""
        nb = [self.not_(b) for b in b_bus]
        total: List[Wire] = []
        # Carry-in of 1 folds into the first stage: s = a ^ ~b ^ 1,
        # c = (a & ~b) | ((a ^ ~b) & 1) = (a & ~b) | (a ^ ~b).
        a0, nb0 = a_bus[0], nb[0]
        s0 = self.xnor_(a0, nb0)
        axb0 = self.xor_(a0, nb0)
        c = self.or_(self.and_(a0, nb0), axb0)
        total.append(s0)
        for i in range(1, len(a_bus)):
            if i == len(a_bus) - 1:
                total.append(self.xor_(self.xor_(a_bus[i], nb[i]), c))
            else:
                s, c = self.full_adder(a_bus[i], nb[i], c)
                total.append(s)
        return total

    def multiplier(self, a_bus: Sequence[Wire],
                   b_bus: Sequence[Wire],
                   width: Optional[int] = None) -> List[Wire]:
        """Array multiplier producing ``(a * b) mod 2**width``.

        Only the partial products that affect the low ``width`` bits are
        generated, keeping the gate count proportional to ``width**2/2``.
        """
        width = width or len(a_bus)
        zero = self.constant(0, 1)[0]
        # Row 0: a * b0.
        acc: List[Wire] = [self.and_(a_bus[j], b_bus[0])
                           for j in range(width)]
        for i in range(1, min(width, len(b_bus))):
            row = [self.and_(a_bus[j], b_bus[i])
                   for j in range(width - i)]
            shifted = acc[:i] + self.ripple_adder(acc[i:],
                                                  row)
            acc = shifted
        return acc

    def constant(self, value: int, width: int) -> List[Wire]:
        """Constant wires (no driver; they keep their initial value)."""
        return [self.wire(init=sl((value >> i) & 1)) for i in range(width)]

    # ------------------------------------------------------------------
    def size_report(self) -> Dict[str, int]:
        report = self.design.size_report()
        report["gates"] = self.gate_count
        report["registers"] = self.register_count
        return report


def bus_value(bus: Sequence[Wire]) -> int:
    """Read a bus's current effective value as an unsigned int (LSB-first)."""
    value = 0
    for i, wire in enumerate(bus):
        bit = wire.effective
        value |= (1 if bit.to_bool() else 0) << i
    return value
