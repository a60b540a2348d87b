"""Wall-clock speedup of the multiprocess backend (procs).

Unlike every other benchmark in this directory — which reports the
*modelled* makespan of the paper's simulated multiprocessor — this one
measures **real wall-clock time**: the sequential reference engine
against the threaded backend and the multiprocess backend on the same
cost-weighted circuit, with identical committed results enforced.

The circuit is a bank of independent pipelines of ``FunctionLP``
stages; every stage event carries a configurable *model-evaluation
cost*.  Two cost regimes are measured:

* **compute-weighted** — the cost is pure Python arithmetic.  The
  threads backend's workers take turns in one thread, so it can never
  exceed 1x no matter how many cores the host has.  The procs backend
  runs each worker in its own interpreter, so its speedup is bounded
  only by *physical cores*, ``min(workers, cores)`` in the
  embarrassingly parallel limit.
* **latency-weighted** — the cost is a blocking wait, modelling the
  external model evaluation of co-simulation (an IP-block server, a
  disk-backed model, an RPC federate a la HLA).  Procs workers overlap
  the waits (token-ring GVT, nothing ever stops the workers) and
  approach the ideal ``min(workers, chains)x``; threads workers wait
  one after the other, at about 1x.

The transcript (``results/procs_speedup.txt``) records the host's
core count next to the numbers: the compute-weighted procs rows scale
with cores, the threads rows do not scale anywhere.
"""

import os
import time

from conftest import emit

from repro.core.event import EventKind
from repro.core.lp import FunctionLP
from repro.core.model import Model
from repro.core.sequential import SequentialSimulator
from repro.core.vtime import VirtualTime
from repro.parallel.procs import run_procs
from repro.parallel.threads import run_threaded

#: Independent pipelines (the parallelism the backends can exploit).
CHAINS = 4
#: Weighted stages per pipeline.
STAGES = 3
#: Stimulus events injected per pipeline.
EVENTS = 100
#: Compute weight: GIL-bound Python iterations per stage event.
BURN_ITERS = 4_000
#: Latency weight: blocking external-model wait per stage event (s).
WAIT_S = 0.002

TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT_S", "300"))


def build(mode: str) -> Model:
    """A bank of CHAINS independent STAGES-deep weighted pipelines."""
    model = Model()
    for chain in range(CHAINS):
        base = chain * (STAGES + 1)

        def on_init(lp, _n=EVENTS):
            for k in range(_n):
                lp.send(lp.lp_id + 1, VirtualTime(10 + 10 * k, 0),
                        EventKind.USER, k)

        source = FunctionLP(f"src{chain}", lambda lp, event: None,
                            on_init=on_init)
        model.add_lp(source)
        previous = source
        for stage in range(STAGES):
            nxt = None if stage == STAGES - 1 else base + stage + 2

            def body(lp, event, _nxt=nxt, _mode=mode):
                if _mode == "compute":
                    acc = 0
                    for i in range(BURN_ITERS):
                        acc += i * i
                    lp.memory["acc"] = acc
                else:
                    time.sleep(WAIT_S)
                if _nxt is not None:
                    lp.send(_nxt, VirtualTime(event.time.pt + 10, 0),
                            EventKind.USER, event.payload)

            stage_lp = FunctionLP(f"c{chain}s{stage}", body)
            model.add_lp(stage_lp)
            model.connect(previous, stage_lp)
            previous = stage_lp
    model.validate()
    return model


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run_matrix(mode: str):
    """sequential / threads-4 / procs-2 / procs-4 on one cost regime."""
    t_seq, stats = _timed(lambda: SequentialSimulator(build(mode)).run())
    rows = [("sequential", 1, t_seq, 1.0, stats.events_committed)]
    runs = [
        ("threads", 4, lambda: run_threaded(
            build(mode), 4, protocol="optimistic", partition="block",
            timeout_s=TIMEOUT_S)),
        ("procs", 2, lambda: run_procs(
            build(mode), 2, protocol="optimistic", partition="block",
            timeout_s=TIMEOUT_S)),
        ("procs", 4, lambda: run_procs(
            build(mode), 4, protocol="optimistic", partition="block",
            timeout_s=TIMEOUT_S)),
    ]
    for backend, workers, thunk in runs:
        dt, outcome = _timed(thunk)
        assert outcome.stats.events_committed == stats.events_committed, (
            backend, workers, outcome.stats.events_committed,
            stats.events_committed)
        rows.append((backend, workers, dt, t_seq / dt,
                     outcome.stats.events_committed))
    return rows


def _table(title: str, rows) -> str:
    lines = [title,
             f"  {'backend':12s} {'workers':>7s} {'wall':>9s} "
             f"{'speedup':>8s} {'committed':>10s}"]
    for backend, workers, dt, speedup, committed in rows:
        lines.append(f"  {backend:12s} {workers:7d} {dt:8.2f}s "
                     f"{speedup:7.2f}x {committed:10d}")
    return "\n".join(lines)


def test_procs_wall_clock_speedup(benchmark):
    cores = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    compute_rows, latency_rows = benchmark.pedantic(
        lambda: (run_matrix("compute"), run_matrix("latency")),
        rounds=1, iterations=1)

    def row(rows, backend, workers):
        return next(r for r in rows if r[0] == backend
                    and r[1] == workers)

    events = CHAINS * STAGES * EVENTS
    text = "\n\n".join([
        f"procs wall-clock speedup - cost-weighted pipeline bank\n"
        f"  circuit: {CHAINS} independent chains x {STAGES} weighted "
        f"stages, {events} weighted events\n"
        f"  host: {cores} usable core(s); every run commits identical "
        f"results (asserted)",
        _table(f"compute-weighted ({BURN_ITERS} GIL-bound iterations "
               f"per event):", compute_rows),
        _table(f"latency-weighted ({WAIT_S * 1000:.0f} ms external "
               f"model-evaluation wait per event):", latency_rows),
        "reading the numbers:\n"
        "  * threads CANNOT speed up anything: its workers take\n"
        "    turns in one thread, so the threads backend stays at or\n"
        "    below 1x on any host.  This is the gap the procs backend\n"
        "    exists to close.\n"
        "  * procs compute speedup is bounded by physical cores:\n"
        "    min(workers, cores)x in the embarrassingly parallel\n"
        "    limit.  A 1-core host pins it to ~1x; re-run on a\n"
        "    multi-core host to watch the 2- and 4-worker rows open\n"
        "    up while the threads row stays flat.\n"
        "  * latency-weighted cost (GIL-releasing, as in\n"
        "    co-simulation) parallelizes on any host on procs, whose\n"
        "    token-ring GVT never stops the world; the same ring on\n"
        "    threads waits turn by turn.",
    ])
    emit("procs_speedup", text)

    # The claims the transcript is committed for:
    threads_compute = row(compute_rows, "threads", 4)[3]
    procs4_latency = row(latency_rows, "procs", 4)[3]
    procs2_latency = row(latency_rows, "procs", 2)[3]
    threads_latency = row(latency_rows, "threads", 4)[3]
    # Threads workers take turns in one thread: no speedup on either
    # regime (generous slack for timer noise).
    assert threads_compute < 1.1, threads_compute
    assert threads_latency < 1.1, threads_latency
    # Real wall-clock speedup > 1x at 4 workers on the cost-weighted
    # circuit, and more workers help (2 -> 4).
    assert procs4_latency > 1.0, procs4_latency
    assert procs4_latency > procs2_latency * 0.9, (
        procs2_latency, procs4_latency)
    if cores >= 2:
        procs4_compute = row(compute_rows, "procs", 4)[3]
        assert procs4_compute > 1.0, procs4_compute
