"""Plain-text rendering of the paper's tables and figures.

Benchmarks print the same rows/series the paper reports: speedup-vs-
processors curves (Figs. 6, 8, 10), the arbitrary-vs-user-consistent
run-time table (Fig. 4), and the circuit size inventory (Sec. 4).  The
renderers are deliberately dependency-free (no plotting) so the harness
runs anywhere; an ASCII chart stands in for each figure.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from .speedup import SpeedupCurve


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Monospace table with per-column alignment."""
    columns = [[str(h)] + [str(row[i]) for row in rows]
               for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(cell).ljust(w)
                                for cell, w in zip(row, widths)))
    return "\n".join(lines)


def speedup_table(curves: Mapping[str, SpeedupCurve],
                  title: str) -> str:
    """One row per processor count, one column per protocol."""
    protocols = list(curves.keys())
    counts = curves[protocols[0]].processors()
    rows = []
    for i, processors in enumerate(counts):
        row: List[object] = [processors]
        for protocol in protocols:
            row.append(f"{curves[protocol].points[i].speedup:.2f}")
        rows.append(row)
    return format_table(["P"] + protocols, rows, title=title)


def ascii_chart(curves: Mapping[str, SpeedupCurve], title: str,
                height: int = 12) -> str:
    """A rough speedup-vs-P chart, one glyph per protocol."""
    glyphs = "o*x+#@"
    protocols = list(curves.keys())
    counts = curves[protocols[0]].processors()
    top = max(max(c.speedups()) for c in curves.values())
    top = max(top, 1.0)
    width = len(counts)
    grid = [[" "] * width for _ in range(height)]
    for gi, protocol in enumerate(protocols):
        for ci, speedup in enumerate(curves[protocol].speedups()):
            row = height - 1 - int(round((speedup / top) * (height - 1)))
            row = min(max(row, 0), height - 1)
            cell = grid[row][ci]
            grid[row][ci] = glyphs[gi] if cell == " " else "&"
    lines = [title]
    for r, row in enumerate(grid):
        level = top * (height - 1 - r) / (height - 1)
        lines.append(f"{level:5.1f} | " + "  ".join(row))
    lines.append("      +-" + "---" * width)
    lines.append("        " + "  ".join(f"{c:d}"[-1] for c in counts)
                 + "   (processors: " + ",".join(map(str, counts)) + ")")
    legend = "  ".join(f"{glyphs[i]}={p}" for i, p in enumerate(protocols))
    lines.append("        " + legend + "  (&=overlap)")
    return "\n".join(lines)
