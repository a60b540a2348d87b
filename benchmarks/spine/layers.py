"""Metric declarations and per-layer attribution.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names: ``run.py --manifest`` renders them into ``BENCHMARK.json`` and
the smoke test checks the two agree.

Every per-layer number is taken from outside the program, one of three
ways (the ``source`` column, printed next to each number):

* ``span``  — class-level wrappers from ``trace.py`` around public
  methods, in this process (``seq-*``, ``model-p4``, ``fuzz-model``);
* ``stats`` — ``RunStats`` counters merged from the workers (the only
  view into ``procs``/``dist`` workers, which are other processes);
* ``probe`` — a direct-drive micro-benchmark of a layer's public
  functions on the workload's own artifacts or events.

A workload that never reaches a layer reports 0 for its rows.
"""

from __future__ import annotations

import math
import pickle
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.core.stats import RunStats
from repro.fabric.batched import BatchedEndpoint
from repro.fabric.wire import decode_frame, encode_frame
from repro.harness.trace import Tracer
from repro.parallel.machine import ParallelMachine
from repro.service import RunSpec, run_fleet
from repro.vhdl import (Design, DesignArtifact, ElabCache, SL_0,
                        cached_elaborate, simulate, simulate_parallel)
from repro.vhdl.process import ProcessLP
from repro.vhdl.signal import SignalLP

from .trace import SpanTracer
from .workloads import (MODEL_PROTOCOLS, RESULTS_DIR, WORKERS, Cell,
                       PassResult, RunRecord, deadline)

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END = (
    ("us_per_event", "us/event", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("model_speedup", "ratio", "higher", 0.001),
)

PROCS_PROTOCOLS = ("conservative", "mixed", "optimistic")
DIST_PROTOCOLS = ("conservative", "optimistic")

#: (name, unit, better, source, "end-to-end metric @ workloads it
#: should move").  The layer is the name's first component.
PER_LAYER = (
    ("frontend.parse_s", "s", "lower", "span", "setup_s @ seq-vhdl"),
    ("frontend.elaborate_s", "s", "lower", "span", "setup_s @ seq-vhdl"),
    ("frontend.src_kb_per_s", "KB/s", "higher", "span",
     "setup_s @ seq-vhdl"),
    ("compile.lower_s", "s", "lower", "span",
     "setup_s @ seq-vhdl, storm-p2"),
    ("artifact.snapshot_s", "s", "lower", "span", "setup_s everywhere"),
    ("artifact.instantiate_s", "s", "lower", "span",
     "setup_s everywhere; us_per_event @ fuzz-model"),
    ("artifact.roundtrip_s", "s", "lower", "probe", "setup_s @ seq-vhdl"),
    ("artifact.bytes", "B", "lower", "probe",
     "setup_s, peak_rss_mb everywhere"),
    ("design.elaborate_s", "s", "lower", "span", "setup_s everywhere"),
    ("cache.hit_s", "s", "lower", "probe", "setup_s @ seq-vhdl"),
    ("cache.miss_s", "s", "lower", "probe", "setup_s @ seq-vhdl"),
    ("process.execs", "count", "lower", "span",
     "us_per_event @ seq-vhdl, storm-p2; not seq-gate"),
    ("process.interp_us_per_exec", "us", "lower", "span",
     "us_per_event @ seq-vhdl"),
    ("process.compiled_us_per_exec", "us", "lower", "span",
     "us_per_event @ seq-vhdl, model-p4"),
    ("process.self_share", "share", "lower", "span",
     "us_per_event @ seq-vhdl"),
    ("signal.events", "count", "lower", "span",
     "us_per_event @ seq-gate, model-p4"),
    ("signal.us_per_event", "us", "lower", "span",
     "us_per_event @ seq-gate, gate half of model-p4, procs-p2"),
    ("signal.self_share", "share", "lower", "span",
     "us_per_event @ seq-gate"),
    ("sequential.self_us_per_event", "us", "lower", "span",
     "us_per_event @ seq-gate, seq-vhdl, oracle share of fuzz-model"),
    ("engine.act_calls", "count", "lower", "span",
     "us_per_event @ model-p4, fuzz-model"),
    ("engine.self_us_per_event", "us", "lower", "span",
     "us_per_event @ model-p4 (most), fuzz-model; not seq-*"),
    ("engine.deliver_s", "s", "lower", "span",
     "us_per_event @ model-p4, fuzz-model"),
    ("engine.snapshots", "count", "lower", "stats",
     "us_per_event @ model-p4; peak_rss_mb"),
    ("engine.snapshot_s", "s", "lower", "span",
     "us_per_event @ model-p4; peak_rss_mb"),
    ("engine.restore_s", "s", "lower", "span",
     "us_per_event @ model-p4, fuzz-model"),
    ("engine.rollbacks", "count", "lower", "stats",
     "us_per_event @ storm-p2, model-p4"),
    ("engine.antimessages", "count", "lower", "stats",
     "us_per_event @ storm-p2"),
    ("engine.efficiency", "share", "higher", "stats",
     "us_per_event @ storm-p2"),
    ("engine.blocked_polls", "count", "lower", "stats",
     "us_per_event @ model-p4 conservative/mixed cells"),
    ("engine.fossil_s", "s", "lower", "span", "us_per_event @ model-p4"),
    ("engine.peak_speculative", "count", "lower", "stats",
     "peak_rss_mb @ model-p4, storm-p2"),
    ("machine.ctor_s", "s", "lower", "span", "setup_s everywhere"),
    ("machine.gvt_rounds", "count", "lower", "stats",
     "us_per_event @ model-p4 conservative/mixed cells"),
    ("machine.gvt_s", "s", "lower", "span",
     "us_per_event @ model-p4 conservative/mixed cells"),
    ("machine.deadlock_recoveries", "count", "lower", "stats",
     "us_per_event @ model-p4 conservative/mixed cells"),
) + tuple(
    (f"machine.makespan.{protocol}", "model-time", "lower", "stats",
     "model_speedup") for protocol in MODEL_PROTOCOLS
) + tuple(
    (f"machine.speedup_p4.{protocol}", "ratio", "higher", "stats",
     "model_speedup") for protocol in MODEL_PROTOCOLS
) + (
    ("machine.vt_width_mean", "fs", "lower", "stats",
     "explains model_speedup"),
    ("machine.utilization", "share", "higher", "stats",
     "explains model_speedup"),
) + tuple(
    (f"procs.us_per_event.{protocol}", "us/event", "lower", "stats",
     "us_per_event @ procs-p2, storm-p2") for protocol in PROCS_PROTOCOLS
) + (
    ("procs.ipc_batches", "count", "lower", "stats",
     "us_per_event @ procs-p2, storm-p2"),
    ("procs.events_per_batch", "ratio", "higher", "stats",
     "us_per_event @ procs-p2"),
    ("procs.token_waves", "count", "lower", "stats",
     "us_per_event @ procs-p2, storm-p2"),
    ("procs.gvt_commits", "count", "lower", "stats",
     "us_per_event @ procs-p2"),
    ("procs.efficiency", "share", "higher", "stats",
     "us_per_event @ storm-p2, procs-p2"),
    ("procs.speedup_vs_seq", "ratio", "higher", "stats",
     "none: layer row only (moves when the oracle gets faster)"),
    ("procs.run_overhead_s", "s", "lower", "probe",
     "us_per_event @ procs-p2, storm-p2"),
    ("fabric.encode_us_per_event", "us", "lower", "probe",
     "us_per_event @ procs-p2, dist-p2"),
    ("fabric.decode_us_per_event", "us", "lower", "probe",
     "us_per_event @ procs-p2, dist-p2"),
    ("fabric.pickle_us_per_event", "us", "lower", "probe",
     "us_per_event @ procs-p2, dist-p2"),
    ("fabric.frame_bytes_per_event", "B", "lower", "probe",
     "us_per_event @ dist-p2"),
    ("fabric.retransmitted", "count", "lower", "stats",
     "us_per_event @ fuzz-model"),
    ("fabric.dedup_dropped", "count", "lower", "stats",
     "us_per_event @ fuzz-model"),
    ("fabric.recoveries", "count", "lower", "stats",
     "us_per_event @ fuzz-model"),
) + tuple(
    (f"dist.us_per_event.{protocol}", "us/event", "lower", "stats",
     "us_per_event @ dist-p2 only") for protocol in DIST_PROTOCOLS
) + (
    ("dist.wire_bytes_per_event", "B", "lower", "stats",
     "us_per_event @ dist-p2 only"),
    ("dist.rtt_mean_ms", "ms", "lower", "stats",
     "us_per_event @ dist-p2 only"),
    ("dist.speedup_vs_seq", "ratio", "higher", "stats",
     "none: layer row only"),
    ("dist.run_overhead_s", "s", "lower", "probe",
     "us_per_event @ dist-p2 only"),
    ("threads.us_per_event", "us/event", "lower", "probe",
     "none: layer row only (before/after for the threads collapse)"),
    ("campaign.scenarios_per_s", "1/s", "higher", "stats",
     "us_per_event @ fuzz-model"),
    ("harness.s_per_scenario", "s", "lower", "span",
     "us_per_event @ fuzz-model"),
    ("harness.tracer_share", "share", "lower", "probe",
     "us_per_event @ fuzz-model"),
    ("service.runs_per_s", "1/s", "higher", "probe",
     "none: layer row only (set-up amortisation)"),
    ("trace.overhead_share", "share", "lower", "span",
     "none: cost of the span wrappers on this workload"),
    ("trace.attributed_share", "share", "higher", "span",
     "none: share of traced wall inside named spans"),
)


# ----------------------------------------------------------------------
# Model time (exact, repeats per seed)
# ----------------------------------------------------------------------
def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def utilization(outcomes: Sequence) -> float:
    """Mean over multi-processor runs of (mean processor clock ÷
    makespan): the share of the modelled machine doing work."""
    shares = [sum(o.clocks) / len(o.clocks) / o.makespan
              for o in outcomes if o.processors > 1 and o.makespan]
    return sum(shares) / len(shares) if shares else 0.0


@contextmanager
def capture_outcomes(into: List) -> None:
    """Keep every ``ParallelOutcome`` returned while the block runs
    (``simulate_parallel`` drops the per-processor clocks)."""
    original = ParallelMachine.run

    def run(self, *args, **kwargs):
        outcome = original(self, *args, **kwargs)
        into.append(outcome)
        return outcome

    ParallelMachine.run = run
    try:
        yield
    finally:
        ParallelMachine.run = original


@contextmanager
def count_tracer_records(counter: List[int]) -> None:
    """Add the size of every ``harness.Tracer`` to ``counter[0]`` when
    its run ends (``fingerprint`` is called once per checked run)."""
    original = Tracer.fingerprint

    def fingerprint(self):
        counter[0] += len(self.records)
        return original(self)

    Tracer.fingerprint = fingerprint
    try:
        yield
    finally:
        Tracer.fingerprint = original


# ----------------------------------------------------------------------
# Direct-drive probes
# ----------------------------------------------------------------------
def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _median_of(fn: Callable[[], float], times: int = 5) -> float:
    return statistics.median(fn() for _ in range(times))


def probe_artifact(artifacts: Sequence[DesignArtifact]) -> Dict[str, float]:
    def roundtrip() -> float:
        return sum(_timed(lambda a=a: DesignArtifact.from_bytes(
            a.to_bytes())) for a in artifacts)
    return {"artifact.roundtrip_s": _median_of(roundtrip, 3),
            "artifact.bytes": float(sum(len(a.to_bytes())
                                        for a in artifacts))}


def probe_cache(cells: Sequence[Cell]) -> Dict[str, float]:
    sources = {cell.source for cell in cells if cell.source is not None}
    miss = hit = 0.0
    RESULTS_DIR.mkdir(exist_ok=True)
    for source, top, traced in sorted(sources):
        with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as root:
            cache = ElabCache(root)
            miss += _timed(lambda: cached_elaborate(
                source, top, traced=traced, cache=cache))
            hit += _median_of(lambda: _timed(lambda: cached_elaborate(
                source, top, traced=traced, cache=cache)))
    return {"cache.miss_s": miss, "cache.hit_s": hit}


def capture_events(artifact: DesignArtifact, limit: int = 512) -> List:
    """Real events of ``artifact``: the first ``limit`` handed to an LP."""
    events: List = []
    originals = {cls: cls.simulate for cls in (SignalLP, ProcessLP)}

    def tap(cls):
        inner = originals[cls]

        def simulate_(self, event):
            if len(events) < limit:
                events.append(event)
            return inner(self, event)
        return simulate_

    for cls in originals:
        cls.simulate = tap(cls)
    try:
        simulate(artifact, max_events=4 * limit)
    finally:
        for cls, inner in originals.items():
            cls.simulate = inner
    return events


def probe_fabric(artifact: DesignArtifact) -> Dict[str, float]:
    """One batch of real events through the procs and dist send paths:
    ``BatchedEndpoint.encode`` -> ``pickle.dumps`` -> ``encode_frame``
    -> ``decode_frame`` -> ``pickle.loads`` -> ``decode``."""
    events = capture_events(artifact)
    if not events:
        return {}
    count = len(events)
    stages = {"encode": [], "pickle": [], "decode": []}
    frame_bytes = 0
    for _ in range(9):
        sender, receiver = BatchedEndpoint(None, 0), BatchedEndpoint(None, 1)
        t0 = time.perf_counter()
        items = sender.encode(1, events)
        t1 = time.perf_counter()
        blob = pickle.dumps(("batch", 0, items),
                            protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
        frame = encode_frame(("relay", 1, ("batch", 0, items)))
        decode_frame(frame)
        t2 = time.perf_counter()
        delivered = receiver.decode(0, items)
        t3 = time.perf_counter()
        if len(delivered) != count:
            raise RuntimeError("fabric probe lost events")
        frame_bytes = len(frame)
        stages["encode"].append(t1 - t0)
        stages["pickle"].append(t2 - t1)
        stages["decode"].append(t3 - t2)

    def per_event(values: List[float]) -> float:
        return 1e6 * statistics.median(values) / count

    return {"fabric.encode_us_per_event": per_event(stages["encode"]),
            "fabric.pickle_us_per_event": per_event(stages["pickle"]),
            "fabric.decode_us_per_event": per_event(stages["decode"]),
            "fabric.frame_bytes_per_event": frame_bytes / count}


def _empty_artifact() -> DesignArtifact:
    design = Design("spine_empty")
    design.signal("idle", SL_0)
    return design.artifact()


def probe_run_overhead(backend: str) -> Dict[str, float]:
    """Wall of a 0-event design: worker spawn + harvest, nothing else."""
    artifact = _empty_artifact()

    def once() -> float:
        with deadline(70.0):
            return _timed(lambda: simulate_parallel(
                artifact, WORKERS, protocol="conservative",
                backend=backend, partition="block", timeout_s=60.0))
    return {f"{backend}.run_overhead_s": _median_of(once, 3)}


def probe_threads(cell: Cell) -> Dict[str, float]:
    with deadline(70.0):
        start = time.perf_counter()
        result = simulate_parallel(cell.artifact, WORKERS,
                                   protocol="conservative",
                                   backend="threads", partition="block",
                                   timeout_s=60.0)
        wall = time.perf_counter() - start
    return {"threads.us_per_event":
            1e6 * wall / max(1, result.stats.events_committed)}


def probe_service(artifact: DesignArtifact) -> Dict[str, float]:
    specs = [RunSpec(label=f"run{i}") for i in range(8)]
    start = time.perf_counter()
    result = run_fleet(artifact, specs, max_workers=WORKERS)
    wall = time.perf_counter() - start
    if not result.ok:
        raise RuntimeError("service probe: a fleet run failed")
    return {"service.runs_per_s": len(specs) / wall}


def probe_tracer_record() -> float:
    """Seconds per ``harness.Tracer.record`` call (direct drive)."""
    def batch() -> float:
        tracer = Tracer()
        start = time.perf_counter()
        for i in range(20_000):
            tracer.record("exec", 0, i, None, kind=1, mode="OPTIMISTIC",
                          eid=(0, i))
        return (time.perf_counter() - start) / 20_000
    return _median_of(batch)


def _artifacts(cells: Sequence[Cell]) -> List[DesignArtifact]:
    return list({c.artifact.content_hash: c.artifact
                 for c in cells}.values())


#: Probe name (``workload.probes``) -> probe over the workload's cells.
PROBES: Dict[str, Callable[[List[Cell]], Dict[str, float]]] = {
    "artifact": lambda cells: probe_artifact(_artifacts(cells)),
    "service": lambda cells: probe_service(_artifacts(cells)[-1]),
    "cache": probe_cache,
    "fabric": lambda cells: probe_fabric(cells[0].artifact),
    "procs_overhead": lambda cells: probe_run_overhead("procs"),
    "dist_overhead": lambda cells: probe_run_overhead("dist"),
    "threads": lambda cells: probe_threads(cells[0]),
}


def run_probes(workload, cells: List[Cell]) -> Dict[str, float]:
    """The probes of the layers predicted to matter on ``workload``."""
    out: Dict[str, float] = {}
    for name in workload.probes:
        out.update(PROBES[name](cells))
    return out


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------
def merged(records: Sequence[RunRecord]) -> RunStats:
    total = RunStats()
    for record in records:
        if record.stats is not None:
            total.merge(record.stats)
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class TracedInvocation:
    """Everything one ``--trace 1`` invocation measured."""

    tracer: SpanTracer
    #: Tracer run id of the traced set-up / of every traced pass's runs.
    setup_run: int
    traced_runs: List[int]
    traced: List[PassResult]
    untraced: List[PassResult]
    #: protocol -> {"makespan": ..., "speedup": ...} of the model cells.
    model_rows: Dict[str, Dict[str, float]]
    utilization: float
    probes: Dict[str, float]
    source_kb: float = 0.0
    #: ``harness.Tracer`` records written during the traced passes, and
    #: the direct-drive cost of writing one.
    tracer_records: int = 0
    tracer_record_s: float = 0.0
    #: artifact hash -> wall of its interpreted sequential run.
    oracle_wall: Dict[str, float] = field(default_factory=dict)


def derive(run: TracedInvocation) -> Dict[str, float]:
    """All per-layer metrics of one traced invocation."""
    tracer, traced, untraced = run.tracer, run.traced, run.untraced
    traced_runs, probes = run.traced_runs, dict(run.probes)
    oracle_wall = run.oracle_wall
    m: Dict[str, float] = {name: 0.0 for name, *_ in PER_LAYER}
    setup = [tracer.runs[run.setup_run]]
    passes = [tracer.runs[i] for i in traced_runs]
    labels = {i: tracer.runs[i]["label"] for i in traced_runs}

    def incl(name, runs=passes):
        return tracer.totals(name, runs)[1]

    def self_s(name, runs=passes):
        return tracer.totals(name, runs)[2]

    def calls(name, runs=passes):
        return tracer.totals(name, runs)[0]

    # -- set-up stages (traced set-up run) -------------------------------
    m["frontend.parse_s"] = incl("frontend.parse", setup)
    m["frontend.elaborate_s"] = self_s("frontend.elaborate", setup)
    m["compile.lower_s"] = incl("compile.lower", setup)
    m["artifact.snapshot_s"] = incl("artifact.snapshot", setup)
    m["artifact.instantiate_s"] = incl("artifact.instantiate", setup)
    m["design.elaborate_s"] = incl("design.elaborate", setup)
    m["machine.ctor_s"] = incl("machine.ctor", setup)
    m["frontend.src_kb_per_s"] = _ratio(
        run.source_kb, m["frontend.parse_s"] + m["frontend.elaborate_s"])

    # -- in-process layers (traced passes) -------------------------------
    traced_wall = sum(p.wall_s for p in traced)
    records = [r for p in traced for r in p.runs]
    stats = merged(records)
    committed = stats.events_committed

    def runs_where(predicate) -> List[dict]:
        picked = {r.label for r in records
                  if r.cell is not None and predicate(r.cell)}
        return [tracer.runs[i] for i in traced_runs
                if labels[i] in picked]

    m["process.execs"] = calls("process.simulate")
    for mode in ("interp", "compiled"):
        runs = runs_where(lambda c, mode=mode: c.exec_mode == mode
                          and c.source is not None)
        m[f"process.{mode}_us_per_exec"] = 1e6 * _ratio(
            incl("process.simulate", runs), calls("process.simulate", runs))
    process_self = (self_s("process.simulate") + self_s("process.snapshot")
                    + self_s("process.restore"))
    signal_self = (self_s("signal.simulate") + self_s("signal.snapshot")
                   + self_s("signal.restore"))
    m["process.self_share"] = _ratio(process_self, traced_wall)
    m["signal.self_share"] = _ratio(signal_self, traced_wall)
    m["signal.events"] = calls("signal.simulate")
    m["signal.us_per_event"] = 1e6 * _ratio(incl("signal.simulate"),
                                            calls("signal.simulate"))
    # Events the sequential engine executed: LP.simulate calls not made
    # by a Processor (parallel executions and coast-forward replays).
    lp_calls = calls("signal.simulate") + calls("process.simulate")
    parallel_calls = stats.events_executed + stats.coast_forward_events \
        if calls("engine.act") else 0
    m["sequential.self_us_per_event"] = 1e6 * _ratio(
        self_s("sequential.run"), max(0, lp_calls - parallel_calls))
    m["engine.act_calls"] = calls("engine.act")
    engine_self = (self_s("engine.act") + self_s("engine.deliver")
                   + self_s("engine.fossil") + self_s("engine.has_work_at")
                   + self_s("engine.local_min_time"))
    if calls("engine.act"):
        m["engine.self_us_per_event"] = 1e6 * _ratio(engine_self, committed)
    m["engine.deliver_s"] = self_s("engine.deliver")
    m["engine.snapshot_s"] = (incl("signal.snapshot")
                              + incl("process.snapshot"))
    m["engine.restore_s"] = incl("signal.restore") + incl("process.restore")
    m["engine.fossil_s"] = incl("engine.fossil")
    m["machine.gvt_s"] = incl("machine.gvt")
    m["harness.s_per_scenario"] = _ratio(incl("harness.run_schedule"),
                                         calls("harness.run_schedule"))
    m["harness.tracer_share"] = _ratio(
        run.tracer_records * run.tracer_record_s
        + incl("harness.invariants"), traced_wall)
    m["trace.attributed_share"] = _ratio(
        sum(entry["root_s"] for entry in passes), traced_wall)
    if untraced and traced:
        m["trace.overhead_share"] = (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in untraced) - 1.0)

    # -- counters (RunStats; the only view into other processes) --------
    # Real backends are timed on the untraced passes: the wrappers live
    # in the forked workers too and would bill their cost to the layer.
    plain = [r for p in untraced for r in p.runs]
    per_pass = max(1, len(untraced))
    totals = merged(plain)
    m["engine.snapshots"] = totals.snapshots / per_pass
    m["engine.rollbacks"] = totals.rollbacks / per_pass
    m["engine.antimessages"] = totals.antimessages / per_pass
    m["engine.efficiency"] = totals.efficiency
    m["engine.blocked_polls"] = totals.blocked_polls / per_pass
    m["engine.peak_speculative"] = totals.peak_speculative
    m["machine.gvt_rounds"] = totals.gvt_rounds / per_pass
    m["machine.deadlock_recoveries"] = totals.deadlock_recoveries / per_pass
    m["machine.vt_width_mean"] = _ratio(totals.vt_spread_width_sum,
                                        totals.vt_spread_samples)
    m["machine.utilization"] = run.utilization
    for protocol, row in run.model_rows.items():
        m[f"machine.makespan.{protocol}"] = row["makespan"]
        m[f"machine.speedup_p4.{protocol}"] = row["speedup"]
    m["fabric.retransmitted"] = totals.retransmitted / per_pass
    m["fabric.dedup_dropped"] = totals.dedup_dropped / per_pass
    m["fabric.recoveries"] = totals.recoveries / per_pass

    for backend, protocols in (("procs", PROCS_PROTOCOLS),
                               ("dist", DIST_PROTOCOLS)):
        mine = [r for r in plain if r.cell is not None
                and r.cell.backend == backend and r.stats is not None]
        if not mine:
            continue
        for protocol in protocols:
            cell_runs = [r for r in mine if r.cell.protocol == protocol]
            m[f"{backend}.us_per_event.{protocol}"] = 1e6 * _ratio(
                sum(r.wall_s for r in cell_runs),
                sum(r.stats.events_committed for r in cell_runs))
        total = merged(mine)
        wall = sum(r.wall_s for r in mine)
        seq_wall = sum(oracle_wall[r.cell.artifact.content_hash]
                       for r in mine)
        m[f"{backend}.speedup_vs_seq"] = _ratio(seq_wall, wall)
        if backend == "procs":
            m["procs.ipc_batches"] = total.ipc_batches / per_pass
            m["procs.events_per_batch"] = _ratio(total.ipc_events,
                                                 total.ipc_batches)
            m["procs.token_waves"] = total.token_waves / per_pass
            m["procs.gvt_commits"] = total.gvt_rounds / per_pass
            m["procs.efficiency"] = total.efficiency
        else:
            m["dist.wire_bytes_per_event"] = _ratio(
                total.net_bytes_tx, total.events_committed)
            m["dist.rtt_mean_ms"] = 1e3 * _ratio(total.net_rtt_sum,
                                                 total.net_rtt_samples)
    campaign = [r for r in plain if r.label == "campaign"]
    if campaign:
        m["campaign.scenarios_per_s"] = _ratio(
            sum(p.attempted for p in untraced),
            sum(r.wall_s for r in campaign))
    for name, value in probes.items():
        m[name] = value
    return m
