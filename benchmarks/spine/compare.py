"""Compare two result files of the spine: ``compare.py A.json B.json``.

A is the parent (or the first set of runs), B the change (or the second
set).  For every workload and end-to-end metric the tool prints both
sides' median and quartiles, the metric's bound and one verdict:

* ``same``       — B's median is within the bound of A's;
* ``better`` / ``worse`` — B's median moved by more than the bound;
* ``unresolved`` — the spread of the compared medians (the wider
  inter-quartile range ÷ sqrt(samples), as a share of A's median)
  exceeds the bound *and* the two sides' samples interleave, so the
  bound cannot tell the sides apart.  Lengthen the runs (``--seconds``
  / ``--reps``) and measure again; an unresolved row is neither a pass
  nor a regression.

Model time, committed-event counts, wave digests and makespans repeat
exactly for a seed and are compared exactly: ``same`` or ``changed``.

The exit code is 0 only when every row is ``same`` or ``better``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Compared exactly; everything else is a timing with a bound.
EXACT_METRICS = ("model_speedup",)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def samples_of(record: Dict, metric: str) -> List[float]:
    """Per-rep samples when the run kept them, else the one value."""
    kept = record.get("samples", {}).get(metric)
    if kept:
        return list(kept)
    return [record["metrics"][metric]]


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    if not am:
        return "same" if not bm else "unresolved"
    worse_by = (bm - am) / am if better == "lower" else (am - bm) / am
    # The rows compare medians, so the spread that matters is the
    # median's: about IQR / sqrt(n) (0.93 of it for a normal sample).
    spread = max((a3 - a1) / len(a) ** 0.5, (b3 - b1) / len(b) ** 0.5) / am
    interleave = not (max(b) < min(a) or min(b) > max(a))
    if spread > bound and interleave:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def load(path: str) -> Dict[str, Dict]:
    """workload -> end-to-end record, from a suite or single-run file."""
    data = json.loads(Path(path).read_text())
    if "workloads" in data:
        return {name: parts["end_to_end"]
                for name, parts in data["workloads"].items()
                if "end_to_end" in parts}
    return {data["workload"]: data}


def compare(a_path: str, b_path: str, out=sys.stdout) -> int:
    declared = json.loads(BENCHMARK.read_text())["end_to_end"]
    side_a, side_b = load(a_path), load(b_path)
    status = 0
    for workload in side_a:
        if workload not in side_b:
            print(f"{workload}: missing from {b_path}", file=out)
            status = 1
            continue
        rec_a, rec_b = side_a[workload], side_b[workload]
        for metric in declared:
            name, bound = metric["name"], metric["bound"]
            if name in EXACT_METRICS:
                continue
            a, b = samples_of(rec_a, name), samples_of(rec_b, name)
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            result = verdict(a, b, metric["better"], bound)
            print(f"{workload:11s} {name:14s} "
                  f"A {am:11.4f} [{a1:.4f}, {a3:.4f}] n={len(a)}  "
                  f"B {bm:11.4f} [{b1:.4f}, {b3:.4f}] n={len(b)}  "
                  f"bound {bound:.0%}  {result}", file=out)
            if result not in ("same", "better"):
                status = 1
        failed = (rec_a["result"]["failed"], rec_b["result"]["failed"])
        result = "same" if failed == (0, 0) else "worse"
        print(f"{workload:11s} {'failed':14s} A {failed[0]} of "
              f"{rec_a['result']['attempted']}  B {failed[1]} of "
              f"{rec_b['result']['attempted']}  bound 0  {result}",
              file=out)
        if result != "same":
            status = 1
        same_seed = rec_a.get("seed") == rec_b.get("seed")
        for key in ("model_speedup", "events_committed", "digests",
                    "makespans"):
            left, right = rec_a["exact"].get(key), rec_b["exact"].get(key)
            if key != "model_speedup" and not same_seed:
                continue  # inputs differ by seed; only model cells do not
            result = "same" if left == right else "changed"
            shown = (f"A {left!r:.40}  B {right!r:.40}"
                     if result == "changed" or key == "model_speedup"
                     else "")
            print(f"{workload:11s} {key:14s} exact  {result}  {shown}",
                  file=out)
            if result != "same":
                status = 1
    return status


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(argv[0], argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
