"""The Gray–Markel cascaded lattice IIR filter (paper Figs. 7/8).

The paper's second workload is a Gray–Markel cascaded lattice IIR filter
described at behavioural and gate level; the gate-level model has ~1708
LPs (Fig. 8: "Gray Markel IIR ... Gate Level Filter ... LPs").

The lattice recursion per section ``i`` (reflection coefficient ``k_i``,
all arithmetic modulo ``2**width`` so that gate level and behavioural
level agree bit-for-bit):

    f_{i-1} = f_i  - k_i * g_{i-1}^(z-1)
    g_i     = k_i * f_{i-1} + g_{i-1}^(z-1)

with ``g_0 = f_0`` and a ``z^-1`` register on every bottom-path tap.  The
filter input enters at ``f_N``; the all-pole output is ``f_0``.

At gate level every multiplier is an array multiplier, every adder a
ripple-carry chain, and every ``z^-1`` a bank of D flip-flops — the
multiplier dominates the LP count exactly as in real gate-level netlists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.model import SyncMode
from ..core.vtime import NS
from ..vhdl.design import Design
from ..vhdl.process import ClockedBody
from ..vhdl.values import SL_0, sl
from .bodies import BusPlayer
from .gates import Netlist, Wire

#: Defaults sized to the paper: 2 sections x 8-bit ≈ 1.7k LPs.
DEFAULT_SECTIONS = 2
DEFAULT_WIDTH = 8
DEFAULT_COEFFS = (3, 251)  # k1=3, k2=-5 mod 256: a mildly resonant pair.

#: Default stimulus: an impulse followed by a short burst.
DEFAULT_SAMPLES = (64, 0, 0, 0, 0, 16, 240, 16, 0, 0, 0, 0, 0, 0, 0, 0)


@dataclass
class IirCircuit:
    """Handle to a built IIR benchmark."""

    design: Design
    sections: int
    width: int
    level: str
    #: Output bus (f_0), LSB first.
    output: List[Wire]

    @property
    def lp_count(self) -> int:
        return self.design.lp_count


def build_iir(sections: int = DEFAULT_SECTIONS,
              width: int = DEFAULT_WIDTH,
              coefficients: Optional[Sequence[int]] = None,
              samples: Sequence[int] = DEFAULT_SAMPLES,
              level: str = "gate",
              period_fs: Optional[int] = None,
              extra_cycles: int = 4) -> IirCircuit:
    """Build the lattice filter fed by ``samples`` (one per clock).

    The default clock period is derived from a generous bound on the
    gate-level combinational critical path (the cascade must settle
    between edges for the registered output to be meaningful).
    """
    if level not in ("gate", "behavioral"):
        raise ValueError(f"unknown level {level!r}")
    if period_fs is None:
        period_fs = 2 * (sections * width * 30 + 100) * NS
    if coefficients is None:
        coefficients = [DEFAULT_COEFFS[i % len(DEFAULT_COEFFS)]
                        for i in range(sections)]
    if len(coefficients) != sections:
        raise ValueError("need one reflection coefficient per section")
    mask = (1 << width) - 1
    coefficients = [k & mask for k in coefficients]
    design = Design(f"iir_{level}_{sections}x{width}")
    clk = design.signal("clk", SL_0)
    cycles = len(samples) + extra_cycles
    design.clock("clkgen", clk, period_fs=period_fs, cycles=cycles)
    net = Netlist(design, delay_fs=1 * NS)
    x_bus = _sample_feeder(design, net, clk, samples, width)
    if level == "gate":
        output = _build_gate(net, clk, x_bus, coefficients, width)
    else:
        output = _build_behavioral(design, clk, x_bus, coefficients, width)
    return IirCircuit(design=design, sections=sections, width=width,
                      level=level, output=output)


def _sample_feeder(design: Design, net: Netlist, clk: Wire,
                   samples: Sequence[int], width: int) -> List[Wire]:
    """A clocked ROM that plays ``samples`` on an input bus, then zeros."""
    x_bus = net.bus("x", width, traced=False)
    feed = BusPlayer(playlist=tuple(samples),
                     out_ids=tuple(w.lp_id for w in x_bus))
    body = ClockedBody(clock=clk, inputs=[], outputs=x_bus, fn=feed,
                       initial_state={"i": 0})
    design.process("feeder", body, mode=SyncMode.CONSERVATIVE)
    return x_bus


def _build_gate(net: Netlist, clk: Wire, x_bus: List[Wire],
                coefficients: Sequence[int], width: int) -> List[Wire]:
    sections = len(coefficients)
    f = x_bus  # f_N enters the cascade
    g_delayed: List[tuple] = []
    # Build top path N..1 first, collecting each section's delayed g tap;
    # the bottom path g_i needs f_{i-1}, so construction is interleaved.
    for i in range(sections - 1, -1, -1):
        k = coefficients[i]
        k_bus = net.constant(k, width)
        gd = net.bus(f"s{i}.gd", width)  # z^-1 output (register bank)
        kg = net.multiplier(k_bus, gd)
        f = net.subtractor(f, kg)  # f_{i-1}
        kf = net.multiplier(k_bus, f)
        g_i = net.ripple_adder(kf, gd)
        g_delayed.append((gd, g_i))
    f0 = f
    # g_0 = f_0; register each g_{i-1} into the next section's gd.
    # taps were appended for i = N-1 .. 0; taps[-1] belongs to section 0
    # and must latch g_{-1} = f_0... in the Gray-Markel structure the
    # bottom-path delay of section i holds g_{i-1}; for section 0 that is
    # g_0 = f_0 itself.
    bottom_inputs = [f0] + [pair[1] for pair in reversed(g_delayed)][:-1]
    for (gd, _g), src in zip(reversed(g_delayed), bottom_inputs):
        net.register(clk, src, gd)
    # Latch the output so protocol runs have a stable committed value.
    y = net.bus("y", width, traced=True)
    net.register(clk, f0, y)
    return y


@dataclass(frozen=True)
class LatticeStep:
    """Behavioural lattice body (module-level callable: picklable)."""

    x_ids: tuple
    y_ids: tuple
    ks: tuple
    mask: int

    def __call__(self, state: Dict, inputs: Dict, api) -> Dict:
        x = 0
        for b, sig in enumerate(self.x_ids):
            if inputs[sig].to_bool():
                x |= 1 << b
        gd = state["gd"]  # delayed bottom-path values, index = section
        ks, mask = self.ks, self.mask
        f = x
        new_g: List[int] = [0] * len(ks)
        for i in range(len(ks) - 1, -1, -1):
            f = (f - ks[i] * gd[i]) & mask
            new_g[i] = (ks[i] * f + gd[i]) & mask
        f0 = f
        # Shift the bottom path: section i latches g_{i-1}; g_0 = f_0.
        state["gd"] = tuple(
            f0 if i == 0 else new_g[i - 1] for i in range(len(ks)))
        state["y"] = f0
        return {self.y_ids[b]: sl((f0 >> b) & 1)
                for b in range(len(self.y_ids))}


def _build_behavioral(design: Design, clk: Wire, x_bus: List[Wire],
                      coefficients: Sequence[int],
                      width: int) -> List[Wire]:
    mask = (1 << width) - 1
    y_bus = [design.signal(f"y[{b}]", SL_0, traced=True)
             for b in range(width)]
    step = LatticeStep(x_ids=tuple(w.lp_id for w in x_bus),
                       y_ids=tuple(w.lp_id for w in y_bus),
                       ks=tuple(coefficients), mask=mask)
    body = ClockedBody(clock=clk, inputs=x_bus, outputs=y_bus, fn=step,
                       initial_state={"gd": tuple([0] * len(step.ks)),
                                      "y": 0})
    design.process("lattice", body, mode=SyncMode.CONSERVATIVE)
    return y_bus


def reference_response(samples: Sequence[int],
                       coefficients: Sequence[int],
                       width: int = DEFAULT_WIDTH,
                       extra_cycles: int = 4) -> List[int]:
    """Pure-Python reference of the registered output per clock cycle."""
    mask = (1 << width) - 1
    ks = [k & mask for k in coefficients]
    gd = [0] * len(ks)
    outputs: List[int] = []
    stream = list(samples) + [0] * extra_cycles
    for x in stream:
        f = x & mask
        new_g = [0] * len(ks)
        for i in range(len(ks) - 1, -1, -1):
            f = (f - ks[i] * gd[i]) & mask
            new_g[i] = (ks[i] * f + gd[i]) & mask
        f0 = f
        gd = [f0 if i == 0 else new_g[i - 1] for i in range(len(ks))]
        outputs.append(f0)
    return outputs
