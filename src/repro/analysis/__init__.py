"""Speedup measurement and table/figure rendering for the evaluation."""

from .report import ascii_chart, format_table, speedup_table
from .speedup import (SpeedupCurve, SpeedupPoint, measure_speedups,
                      sequential_baseline)
from .diff import DiffReport, Divergence, diff_results
from .vcd import vcd_string, write_vcd
from .waves import render_waves

__all__ = [
    "SpeedupCurve", "SpeedupPoint", "measure_speedups",
    "sequential_baseline",
    "ascii_chart", "format_table", "speedup_table",
    "write_vcd", "vcd_string",
    "diff_results", "DiffReport", "Divergence",
    "render_waves",
]
