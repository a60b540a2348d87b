"""The measurement spine: one command for every number the repo claims.

    python3 benchmarks/spine/run.py                      # all 7 workloads
    python3 benchmarks/spine/run.py --quick              # < 30 s smoke
    python3 benchmarks/spine/run.py --workload model-p4 --seed 13 \\
        --seconds 10 --trace 0                           # one invocation

With exactly one ``--workload`` the workload runs in this process and
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
Otherwise each selected workload runs in a fresh child interpreter,
untraced then traced, and a table of every metric is printed (and
written to ``--out``).  The exit code is non-zero when any run failed,
timed out or committed waves that differ from the sequential oracle.

The script finds ``src/`` beside ``benchmarks/`` itself; nothing needs
to be installed or exported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parent.parent
DEFAULT_SEED = 12
#: ``setup_s`` is the median of at least SETUPS set-ups; cheap set-ups
#: (a few ms) are repeated, up to MAX_SETUPS, until SETUP_BUDGET_S is
#: spent, because three samples of a 10 ms interval are mostly noise.
SETUPS = 3
MAX_SETUPS = 25
SETUP_BUDGET_S = 1.5
MIN_REPS = 3
#: ``run_seconds`` of BENCHMARK.json: how long the timed reps measure.
RUN_SECONDS = 10


def _import_spine():
    """The ``spine`` package, imported with ``src/`` and ``benchmarks/``
    on the path (``spine.layers``, ``.trace``, ``.workloads``,
    ``.compare`` are loaded)."""
    for path in (SPINE_DIR.parent, REPO_ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import spine
        from spine import compare, layers, trace, workloads  # noqa: F401
    except ImportError as failure:
        sys.exit(f"spine: cannot import the simulator from "
                 f"{REPO_ROOT / 'src'}: {failure}")
    return spine


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def host_info() -> Dict[str, object]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a repository


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
class Invocation:
    """Shared state of one ``--workload`` run: verdicts and pass loop."""

    def __init__(self, workload, seed: int, seconds: float,
                 reps: Optional[int], quick: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.reps = 1 if quick and reps is None else reps
        self.quick = quick
        self.attempted = 0
        self.failures: List[str] = []
        self.signature = None
        self.state = None
        self.expected = None

    def note(self, outcome) -> None:
        """Fold one pass's verdicts; counters must repeat exactly."""
        self.attempted += outcome.attempted
        self.failures.extend(outcome.failures)
        if outcome.failures:
            return
        if self.signature is None:
            self.signature = outcome.signature
        elif outcome.signature != self.signature:
            self.failures.append(
                f"counters did not repeat: {outcome.signature!r} "
                f"after {self.signature!r}")

    def one_pass(self, on_run=None):
        gc.collect()  # between reps; the collector stays on during one
        outcome = self.workload.one_pass(self.state, self.expected, on_run)
        self.note(outcome)
        return outcome

    def enough(self, done: int, started: float,
               minimum: int = MIN_REPS) -> bool:
        if self.reps is not None:
            return done >= self.reps
        return done >= minimum \
            and time.perf_counter() - started >= self.seconds

    # ------------------------------------------------------------------
    def model_time(self, warm, workloads):
        """P=1 / P=4 model-time makespans of the workload's model cells.

        Returns ``({cell: speedup}, {protocol: {"makespan": [...],
        "speedup": [...]}}, {"p1": ..., "p4": ...})``.  Model time
        repeats exactly; P=4 makespans the warm-up pass already
        produced are reused, not re-run.
        """
        cells = self.workload.model_cells(self.state, self.quick)
        expected = workloads.oracle_of(cells)
        p4 = {r.label: r.makespan for r in warm.runs
              if r.makespan is not None}
        rest = workloads.run_cells(
            [c for c in cells if c.label not in p4], expected)
        single = workloads.run_cells(
            [replace(c, processors=1) for c in cells], expected)
        for outcome in (rest, single):
            self.attempted += outcome.attempted
            self.failures.extend(outcome.failures)
        p4.update({r.label: r.makespan for r in rest.runs})
        p1 = {r.label: r.makespan for r in single.runs}
        ratios: Dict[str, float] = {}
        rows: Dict[str, Dict[str, List[float]]] = {}
        for cell in cells:
            m1, m4 = p1.get(cell.label), p4.get(cell.label)
            if not m1 or not m4:
                continue  # the run failed and is already counted
            ratios[cell.label] = m1 / m4
            row = rows.setdefault(cell.protocol,
                                  {"makespan": [], "speedup": []})
            row["makespan"].append(m4)
            row["speedup"].append(m1 / m4)
        return ratios, rows, {"p1": p1, "p4": p4}


def run_untraced(inv: Invocation, spine) -> Dict[str, object]:
    layers, workloads = spine.layers, spine.workloads
    workload = inv.workload
    setups: List[float] = []
    while not setups or (not inv.quick and (
            len(setups) < SETUPS or (len(setups) < MAX_SETUPS
                                     and sum(setups) < SETUP_BUDGET_S))):
        gc.collect()
        start = time.perf_counter()
        inv.state = workload.prepare(inv.seed, inv.quick)
        setups.append(time.perf_counter() - start)
    inv.expected = workload.oracle(inv.state)
    warm = inv.one_pass()  # untimed warm-up pass
    ratios, _rows, makespans = inv.model_time(warm, workloads)
    samples: List[float] = []
    walls: List[float] = []
    events = passes = 0
    started = time.perf_counter()
    while not inv.enough(passes, started):
        outcome = inv.one_pass()
        passes += 1
        if outcome.events:
            samples.append(1e6 * outcome.wall_s / outcome.events)
            walls.append(outcome.wall_s)
            events = outcome.events
    metrics = {
        "us_per_event": median(samples),
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "model_speedup": layers.geomean(list(ratios.values())),
    }
    return {
        "metrics": metrics,
        "samples": {"us_per_event": samples, "setup_s": setups,
                    "pass_wall_s": walls},
        "exact": {
            "events_committed": events,
            "model_speedup": metrics["model_speedup"],
            "makespans": makespans,
            "digests": ({key: want.digest
                         for key, want in sorted(inv.expected.items())}
                        if inv.expected else {}),
            "signature": repr(inv.signature),
        },
    }


def run_traced(inv: Invocation, spine) -> Dict[str, object]:
    layers, workloads = spine.layers, spine.workloads
    workload = inv.workload
    tracer = spine.trace.SpanTracer()
    tracer.install()
    try:
        tracer.begin_run("setup")
        inv.state = workload.prepare(inv.seed, inv.quick)
    finally:
        tracer.remove()
    inv.expected = workload.oracle(inv.state)
    outcomes: List = []
    with layers.capture_outcomes(outcomes):
        warm = inv.one_pass()
        _ratios, rows, _makespans = inv.model_time(warm, workloads)
    # Alternate untraced and traced passes so drift hits both alike.
    untraced, traced, traced_runs = [], [], []
    records = [0]
    started = time.perf_counter()
    while not inv.enough(len(traced), started, minimum=2):
        untraced.append(inv.one_pass())
        first = len(tracer.runs)
        tracer.install()
        try:
            with layers.count_tracer_records(records):
                traced.append(inv.one_pass(tracer.begin_run))
        finally:
            tracer.remove()
        traced_runs.extend(range(first, len(tracer.runs)))
    cells = workload.cells(inv.state)
    try:
        probes = layers.run_probes(workload, cells)
    except Exception as failure:  # a probe that breaks is a failed run
        probes = {}
        inv.failures.append(f"probe: {type(failure).__name__}: {failure}")
    inv.attempted += 1  # the probes count as one run
    sources = {c.source for c in cells if c.source is not None}
    metrics = layers.derive(layers.TracedInvocation(
        tracer=tracer, setup_run=0, traced_runs=traced_runs,
        traced=traced, untraced=untraced,
        model_rows={protocol: {"makespan": sum(row["makespan"]),
                               "speedup": layers.geomean(row["speedup"])}
                    for protocol, row in rows.items()},
        utilization=layers.utilization(outcomes),
        probes=probes,
        source_kb=sum(len(text) for text, _top, _tr in sources) / 1024.0,
        tracer_records=records[0],
        tracer_record_s=(layers.probe_tracer_record()
                         if records[0] else 0.0),
        oracle_wall={key: want.wall_s
                     for key, want in (inv.expected or {}).items()}))
    workloads.RESULTS_DIR.mkdir(exist_ok=True)
    dump = tracer.dump()
    dump.update(workload=workload.name, seed=inv.seed, metrics=metrics)
    path = workloads.RESULTS_DIR / f"trace-{workload.name}.json"
    path.write_text(json.dumps(dump))
    return {"metrics": metrics, "trace_file": str(path)}


def run_one(args, name: str) -> int:
    spine = _import_spine()
    layers, workloads = spine.layers, spine.workloads
    workload = workloads.WORKLOADS[name]
    inv = Invocation(workload, args.seed, args.seconds, args.reps,
                     args.quick)
    started = time.perf_counter()
    if args.trace:
        detail = run_traced(inv, spine)
        declared = layers.PER_LAYER
    else:
        detail = run_untraced(inv, spine)
        declared = layers.END_TO_END
    units = {row[0]: row[1] for row in declared}
    attempted = max(1, inv.attempted)
    result = {
        "correct": not inv.failures,
        "attempted": attempted,
        # "counters did not repeat" is a verdict on a pass, not a run.
        "failed": min(len(inv.failures), attempted),
        "metrics": {name_: {"value": detail["metrics"][name_],
                            "unit": units[name_]} for name_ in units},
    }
    record = dict(detail, workload=name, why=workload.why, seed=args.seed,
                  traced=bool(args.trace), quick=args.quick,
                  failures=inv.failures, result=result,
                  failed_share=result["failed"] / attempted,
                  wall_s=time.perf_counter() - started,
                  workers=min(workloads.WORKERS, os.cpu_count() or 1),
                  host=host_info(), commit=git_commit())
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    print_record(record, spine)
    for failure in inv.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def print_record(record: Dict, spine) -> None:
    layers, quartiles = spine.layers, spine.compare.quartiles
    name = record["workload"]
    if record["traced"]:
        sources = {row[0]: (row[1], row[3], row[4])
                   for row in layers.PER_LAYER}
        print(f"[{name}] per-layer metrics, seed {record['seed']} "
              f"(span = wrappers in this process, stats = RunStats "
              f"merged from workers, probe = direct-drive micro-benchmark;"
              f" 0 = layer not reached)")
        for metric, value in record["metrics"].items():
            unit, source, moves = sources[metric]
            print(f"  {metric:34s} {value:16.6g} {unit:10s} "
                  f"{source:5s} -> {moves}")
        return
    samples = record["samples"]["us_per_event"]
    q1, med, q3 = quartiles(samples)
    units = {row[0]: row[1] for row in layers.END_TO_END}
    print(f"[{name}] end-to-end metrics, seed {record['seed']}, "
          f"{len(samples)} timed reps (too few for a tail percentile: "
          f"median and quartiles only)")
    print(f"  {'us_per_event':14s} {med:12.4f} {units['us_per_event']:9s}"
          f" q1 {q1:.4f} q3 {q3:.4f} n {len(samples)}")
    setups = record["samples"]["setup_s"]
    q1, med, q3 = quartiles(setups)
    print(f"  {'setup_s':14s} {med:12.4f} {units['setup_s']:9s}"
          f" q1 {q1:.4f} q3 {q3:.4f} n {len(setups)}")
    for metric in ("peak_rss_mb", "model_speedup"):
        print(f"  {metric:14s} {record['metrics'][metric]:12.4f} "
              f"{units[metric]:9s}")
    print(f"  {'failed_share':14s} {record['failed_share']:12.4f} "
          f"{'share':9s} ({len(record['failures'])} of "
          f"{record['result']['attempted']} runs)")


# ----------------------------------------------------------------------
# The whole benchmark: one fresh interpreter per workload
# ----------------------------------------------------------------------
def run_suite(args, names: Sequence[str]) -> int:
    workloads = _import_spine().workloads
    workloads.RESULTS_DIR.mkdir(exist_ok=True)
    suite = {"seed": args.seed, "quick": args.quick, "host": host_info(),
             "commit": git_commit(),
             "workers": min(workloads.WORKERS, os.cpu_count() or 1),
             "label": "baseline: later changes are measured against "
                      "rows like these; no number here is a gain",
             "workloads": {}}
    status = 0
    for name in names:
        for traced in (0, 1):
            part = workloads.RESULTS_DIR / f"part-{name}-{traced}.json"
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(traced), "--out", str(part)]
            if args.reps is not None:
                command += ["--reps", str(args.reps)]
            if args.quick:
                command.append("--quick")
            child = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, timeout=900)
            # Everything but the contract's JSON line is the table.
            print("\n".join(child.stdout.rstrip().split("\n")[:-1]))
            if child.returncode:
                status = 1
            if part.exists():
                record = json.loads(part.read_text())
                part.unlink()
                key = "per_layer" if traced else "end_to_end"
                suite["workloads"].setdefault(name, {})[key] = record
    out = Path(args.out) if args.out else (
        workloads.RESULTS_DIR / f"spine-seed{args.seed}.json")
    out.write_text(json.dumps(suite, indent=1))
    print(f"wrote {out}")
    return status


def manifest(spine) -> Dict[str, object]:
    """``BENCHMARK.json`` rendered from the declarations in the code."""
    layers, workloads = spine.layers, spine.workloads
    return {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in layers.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _source, _moves in layers.PER_LAYER],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload name (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed reps of one run measure")
    parser.add_argument("--reps", type=int, default=None,
                        help="exactly this many timed reps instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics (single workload)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one rep: the smoke configuration")
    parser.add_argument("--out", help="also write the full record here")
    parser.add_argument("--manifest", action="store_true",
                        help="rewrite BENCHMARK.json from the declarations")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash order decides set iteration order and so timing: pin it.
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *(sys.argv[1:] if argv is None else argv)],
                  dict(os.environ, PYTHONHASHSEED="0"))
    spine = _import_spine()
    workloads = spine.workloads
    if args.manifest:
        (REPO_ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(spine), indent=2) + "\n")
        return 0
    unknown = [n for n in args.workload if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from "
                     f"{list(workloads.WORKLOADS)}")
    if len(args.workload) == 1:
        return run_one(args, args.workload[0])
    return run_suite(args, args.workload or list(workloads.WORKLOADS))


if __name__ == "__main__":
    sys.exit(main())
