#!/usr/bin/env python
"""A small parallel-simulation study on the gate-level IIR filter.

Reproduces, at reduced scale, what the paper's evaluation does: sweep
processor counts and synchronization protocols over the Gray–Markel
lattice filter, print the speedup table, and look inside the protocol
statistics (rollbacks, deadlock recoveries, mode switches) to see *why*
each configuration behaves as it does.

Run:  python examples/parallel_filter_study.py
"""

from repro.analysis import (ascii_chart, measure_speedups, speedup_table,
                            sequential_baseline)
from repro.circuits import build_iir

SAMPLES = (32, 0, 0, 12, 0, 0, 0, 0)
SECTIONS, WIDTH = 1, 6
PROCESSORS = [1, 2, 4, 8]
PROTOCOLS = ["optimistic", "conservative", "mixed", "dynamic"]


def build():
    return build_iir(sections=SECTIONS, width=WIDTH,
                     coefficients=(5,), samples=SAMPLES,
                     extra_cycles=2).design


def main() -> None:
    circuit = build_iir(sections=SECTIONS, width=WIDTH,
                        coefficients=(5,), samples=(1,), extra_cycles=0)
    print(f"gate-level lattice IIR: {circuit.lp_count} LPs "
          f"({SECTIONS} section(s), {WIDTH}-bit datapath)")
    baseline = sequential_baseline(build)
    print(f"sequential baseline: {baseline:.0f} modelled units\n")

    curves = measure_speedups(build, PROTOCOLS, PROCESSORS,
                              max_steps=20_000_000)
    print(speedup_table(curves, "speedup vs processors"))
    print()
    print(ascii_chart(curves, "speedup (ASCII)"))
    print()

    print("what the protocols paid for synchronization (at max P):")
    for protocol in PROTOCOLS:
        stats = curves[protocol].points[-1].outcome.stats
        print(f"  {protocol:13s} rollbacks={stats.rollbacks:5d}  "
              f"antimessages={stats.antimessages:5d}  "
              f"recoveries={stats.deadlock_recoveries:4d}  "
              f"mode switches={stats.mode_switches:3d}  "
              f"efficiency={stats.efficiency:.2f}")

    best = max(PROTOCOLS,
               key=lambda p: curves[p].speedups()[-1])
    print(f"\nbest configuration at P={PROCESSORS[-1]}: {best} "
          f"({curves[best].speedups()[-1]:.2f}x)")
    dynamic = curves["dynamic"]
    switches = dynamic.points[-1].outcome.stats.mode_switches
    print(f"dynamic at P={PROCESSORS[-1]}: "
          f"{dynamic.speedups()[-1]:.2f}x with {switches} mode switch(es)")
    if switches:
        print("  it adapted: LPs changed mode at run time without being "
              "told which to use — the paper's headline.")
    else:
        print("  it did not adapt: no LP changed mode, so it ran as its "
              "starting assignment.")


if __name__ == "__main__":
    main()
