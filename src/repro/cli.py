"""Command-line interface: compile, simulate, and study VHDL designs.

Usage (also via ``python -m repro``):

    repro simulate design.vhd --top tb --until 1us --vcd wave.vcd
    repro parallel design.vhd --top tb -p 8 --protocol dynamic
    repro run      design.vhd --top tb -p 4 --backend procs \
                   --protocol optimistic
    repro report   design.vhd --top tb
    repro bench    fsm --processors 1 2 4 8

The ``simulate`` command runs the sequential reference engine;
``parallel`` (alias ``run``) executes a parallel backend — the
modelled multiprocessor by default, or the worker ring with its
workers taking turns in one thread (``--backend threads``) / real
multiprocessing workers with batched IPC and token-ring GVT
(``--backend procs``) — under any of the
paper's protocol configurations and prints the synchronization
statistics;
``report`` prints the elaborated LP graph inventory; ``bench`` sweeps a
built-in benchmark circuit.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from importlib import import_module
from typing import List, Optional

from .config import (EXEC_MODES, PARALLEL_BACKENDS, PROTOCOLS, ConfigError,
                     RunConfig)
from .core.vtime import format_time, parse_time

# Everything heavier — the VHDL front-end and compiler, analysis, the
# harness, the campaign — is imported by the command handler that uses
# it: `repro serve` is also the start-up path of every auto-spawned
# dist worker daemon, which should reach its port banner having
# imported only what a worker needs (tests/test_cli.py pins this).

class _ReadLate:
    """A ``choices`` table another module keeps, imported only when a
    command line names one of its values (argparse then lists them if
    it refuses one); the argument takes a ``metavar``, or building the
    parser would list them."""

    def __init__(self, module: str, name: str) -> None:
        self.module, self.name = module, name

    def __iter__(self):
        return iter(getattr(import_module(self.module, __package__),
                            self.name))

    def __contains__(self, value) -> bool:
        return value in tuple(self)


#: The registered circuits (``repro.harness.check.CIRCUITS``).
CIRCUITS = _ReadLate(".harness.check", "CIRCUITS")


def _unreadable(message: str) -> SystemExit:
    """A flag value argparse could not have read either: one ``repro:``
    line, and argparse's exit to raise (status 2).  A value that reads
    but describes no runnable run is a :class:`ConfigError` instead,
    which :func:`main` turns into the same line and status."""
    print(f"repro: {message}", file=sys.stderr)
    return SystemExit(2)


def _below(flag: str, values, least: int = 1) -> None:
    """Refuse a flag given a value below ``least`` (``None``: the flag
    was not given)."""
    low = min(values) if isinstance(values, list) else values
    if low is not None and low < least:
        raise ConfigError(f"{flag} must be at least {least}, got {low:g}")


def _parse_until(text: Optional[str]) -> Optional[int]:
    """'500ns' / '1 us' / '1000' (fs) -> femtoseconds."""
    if text is None:
        return None
    text = text.strip()
    try:
        for unit in ("fs", "ps", "ns", "us", "ms", "sec", "s"):
            if text.endswith(unit):
                number = text[: -len(unit)].strip()
                return parse_time(float(number), unit)
        return int(text)
    except ValueError:
        raise _unreadable(
            f"--until {text!r} is not a time such as '500ns', '1 us' "
            f"or a femtosecond count") from None


def _read_source(path: str) -> str:
    """The text of a VHDL file; a file that cannot be read is refused."""
    try:
        with open(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as failure:
        reason = getattr(failure, "strerror", None) or failure
        raise ConfigError(f"cannot read {path}: {reason}") from None


@contextmanager
def _front_end(path: Optional[str]):
    """Refuse VHDL the front end cannot read — a lexer or parser error,
    an unknown entity, an elaboration it rejects — with the file's
    name, instead of a traceback (``path`` ``None``: a built-in
    circuit, which the front end does not read)."""
    from .vhdl.frontend import ElaborationError, VhdlRuntimeError

    try:
        yield
    except (KeyError, SyntaxError, ElaborationError,
            VhdlRuntimeError) as failure:
        if path is None:
            raise
        # DesignFile's KeyError names the entity in its one argument.
        reason = failure.args[0] if isinstance(failure, KeyError) \
            else failure
        raise ConfigError(f"{path}: {reason}") from None


def _load_design(args):
    from .vhdl.frontend import elaborate

    source = _read_source(args.file)
    traced = True if not args.trace else tuple(args.trace)
    with _front_end(args.file):
        return elaborate(source, top=args.top, traced=traced)


def _parse_circuit_params(items: Optional[List[str]]):
    """``["gates=12", "delays=0,0,1000000"]`` -> builder kwargs.

    Comma-separated values become tuples of ints (the ``delays``
    palette); single values parse as int when possible.
    """
    params = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--circuit-param {item!r} is not KEY=VALUE")
        key, value = key.strip(), value.strip()
        try:
            params[key] = (tuple(int(v) for v in value.split(","))
                           if "," in value else int(value))
        except ValueError:
            raise ConfigError(
                f"--circuit-param {key} needs an int or comma-separated "
                f"ints, got {value!r}") from None
    return params


def _fault_plan(args):
    """``--fault-plan`` with every ``--crash`` added, or ``None``."""
    from .fabric import parse_fault_plan

    if not (args.fault_plan or args.crash):
        return None
    try:
        plan = parse_fault_plan(args.fault_plan or "")
    except ValueError as failure:
        raise ConfigError(f"--fault-plan: {failure}") from None
    crashes = []
    for spec in args.crash or ():
        at, _, proc = spec.partition(":")
        try:
            crashes.append((int(at), int(proc)))
        except ValueError:
            raise ConfigError(
                f"--crash {spec!r} is not STEP:PROC (two ints)") from None
    return plan.with_crashes(*crashes)


#: Flags spelled as the RunConfig field they set.
_FIELD_FLAGS = ("backend", "protocol", "processors", "partition",
                "watchdog", "start_method", "hosts", "circuit",
                "circuit_seed")


def _run_config(args, **fields) -> RunConfig:
    """The run the command line describes (``fields`` set what its
    flags do not), validated: a refusal raises :class:`ConfigError`."""
    flags = vars(args)
    given = {name: flags[name] for name in _FIELD_FLAGS
             if flags.get(name) is not None}
    given.update(
        until=_parse_until(flags.get("until")),
        circuit_params=_parse_circuit_params(flags.get("circuit_param")),
        exec_mode=flags.get("exec") or "interp")
    if flags.get("timeout") is not None:
        given["timeout_s"] = flags["timeout"]
    if "fault_plan" in flags:
        given["fault_plan"] = _fault_plan(args)
    return RunConfig(**{**given, **fields}).validate()


def _refuse_two_sources(args) -> None:
    """``run``/``parallel``, ``elab`` and ``batch`` take a design as a
    VHDL file or a built-in circuit, so any configuration the
    conformance harness or the fuzzing campaign flags can be re-run
    directly; exactly one of the two."""
    if args.circuit is not None and args.file is not None:
        raise _unreadable("give a VHDL file or --circuit, not both")
    if args.circuit is None and args.file is None:
        raise _unreadable("need a VHDL file or --circuit NAME")
    if args.file is not None and args.top is None:
        raise _unreadable("--top is required with a VHDL file")


def _add_design_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="VHDL source file")
    parser.add_argument("--top", required=True,
                        help="top entity to elaborate")
    parser.add_argument("--until", default=None,
                        help="simulation horizon, e.g. '500ns' or '1us'")
    parser.add_argument("--trace", nargs="*", default=None,
                        help="signals to trace (default: all)")
    parser.add_argument("--vcd", default=None,
                        help="write waveforms to this VCD file")
    parser.add_argument("--waves", action="store_true",
                        help="print an ASCII timing diagram")


def _add_exec_arg(parser: argparse.ArgumentParser,
                  default: Optional[str] = "interp") -> None:
    parser.add_argument("--exec", default=default,
                        choices=EXEC_MODES,
                        help="process execution mode: tree-walking "
                             "interpretation (reference) or closure "
                             "programs lowered by repro.vhdl.compile "
                             "(bit-identical, lower per-event cost)")


def cmd_simulate(args) -> int:
    from .analysis.vcd import write_vcd
    from .vhdl import simulate

    design = _load_design(args)
    result = simulate(design, until=_parse_until(args.until),
                      exec_mode=args.exec)
    print(f"{design.lp_count} LPs, "
          f"{result.stats.events_committed} events, "
          f"final time {format_time(result.stats.final_time.pt)}")
    if args.waves:
        from .analysis.waves import render_waves
        print(render_waves(result))
    if args.vcd:
        write_vcd(result, args.vcd)
        print(f"waveforms written to {args.vcd}")
    elif not args.waves:
        for name in sorted(result.traces):
            changes = len(result.traces[name])
            print(f"  {name}: {changes} change(s), "
                  f"final {result.finals[name]!r}")
    return 0


def cmd_parallel(args) -> int:
    from .analysis.vcd import write_vcd
    from .harness.check import fresh_design
    from .parallel.engine import ProtocolError
    from .vhdl import execute

    _refuse_two_sources(args)
    config = _run_config(args)
    design = fresh_design(config) if config.circuit else _load_design(args)
    try:
        result = execute(design, config)
    except ProtocolError as failure:
        report = getattr(failure, "stall_report", None)
        if report is not None:
            print(report.describe())
        else:
            print(f"protocol error: {failure}")
        partial = getattr(failure, "partial_stats", None)
        if partial is not None:
            print(f"  partial stats : {partial.events_committed} "
                  f"committed, {partial.rollbacks} rollbacks, "
                  f"{partial.liveness_summary()}")
        return 1
    stats, backend = result.stats, config.backend
    print(f"{design.lp_count} LPs on {config.processors} processors "
          f"({backend} backend, {config.protocol}, "
          f"{config.partition} partitioning)")
    if result.parallel_time is not None:
        print(f"  modelled makespan : {result.parallel_time:.1f} units")
    print(f"  committed events  : {stats.events_committed}")
    print(f"  rollbacks         : {stats.rollbacks} "
          f"(efficiency {stats.efficiency:.3f})")
    print(f"  antimessages      : {stats.antimessages}")
    print(f"  deadlock recovery : {stats.deadlock_recoveries} rounds")
    print(f"  mode switches     : {stats.mode_switches}")
    if backend != "model":
        print(f"  batched IPC       : {stats.ipc_summary()}")
    if backend == "dist":
        print(f"  network           : {stats.net_summary()}")
    if config.fault_plan is not None:
        print(f"  fault plan        : {config.fault_plan.describe()}")
        print(f"  fabric            : {stats.fabric_summary()}")
    if args.waves:
        from .analysis.waves import render_waves
        print(render_waves(result))
    if args.vcd:
        write_vcd(result, args.vcd)
        print(f"waveforms written to {args.vcd}")
    return 0


def cmd_serve(args) -> int:
    """Run a distributed-backend worker daemon until told to exit."""
    if not 0 <= args.port <= 65535:
        raise ConfigError(f"--port must be 0 to 65535, got {args.port}")
    from .parallel.dist import serve

    serve(host=args.host, port=args.port, once=args.once)
    return 0


def cmd_check(args) -> int:
    """Conformance check: explore schedules, verify invariants + oracle.

    Exit status: 0 = every explored interleaving clean; 1 = at least
    one invariant violation / oracle diff (failing schedules are saved
    as replayable artifacts when ``--artifact-dir`` is set).
    """
    from .harness import Checker, Schedule, check_backend, replay_schedule

    _below("--schedules", args.schedules)
    configs = [_run_config(args, circuit=circuit)
               for circuit in args.circuit]

    if args.backend != "model":
        failed = False
        for config in configs:
            run = check_backend(config)
            status = "CLEAN" if run.ok else "FAILED"
            print(f"{config.circuit} [{run.label}]: {status}")
            for violation in run.violations:
                failed = True
                print(f"  VIOLATION: {violation}")
        return 1 if failed else 0

    if args.replay:
        try:
            schedule = Schedule.load(args.replay)
        except (OSError, ValueError, KeyError) as failure:
            print(f"repro: cannot load schedule artifact {args.replay}: "
                  f"{failure}")
            return 1
        # --exec overrides the artifact's recorded mode (so a corpus
        # recorded under the interpreter re-proves itself compiled).
        run = replay_schedule(schedule, exec_mode=args.exec)
        recorded = schedule.config
        print(f"replayed {recorded.circuit} "
              f"({recorded.processors}p, {recorded.protocol}): "
              f"{len(run.decisions)} decisions")
        for violation in run.violations:
            print(f"  VIOLATION: {violation}")
        print("result: " + ("CLEAN" if run.ok else "FAILED"))
        return 0 if run.ok else 1

    if args.record:
        schedule, run = Checker(configs[0]).record()
        schedule.save(args.record)
        print(f"recorded {schedule.config.circuit} schedule "
              f"({len(schedule.decisions)} decisions, "
              f"digest {schedule.wave_digest[:12]}...) -> {args.record}")
        for violation in run.violations:
            print(f"  VIOLATION: {violation}")
        return 0 if run.ok else 1

    failed = False
    for config in configs:
        report = Checker(config, artifact_dir=args.artifact_dir).explore(
            schedules=args.schedules, seed=args.seed)
        print(report.summary())
        for run in report.failures:
            failed = True
            for violation in run.violations[:4]:
                print(f"  [{run.label}] {violation}")
        for path in report.artifacts:
            print(f"  artifact: {path}")
    return 1 if failed else 0


def cmd_fuzz(args) -> int:
    """Differential fuzzing campaign over the scenario axes.

    Exit status: 0 = every scenario clean; 1 = at least one failure
    (new signatures are shrunk and persisted when ``--corpus`` is set).
    """
    from .campaign import Campaign, Corpus, ScenarioSpace

    _below("--max-scenarios", args.max_scenarios)
    if args.budget <= 0:
        raise ConfigError(f"--budget must be positive, got {args.budget:g}")
    space = ScenarioSpace(seed=args.seed, backends=args.backend,
                          axes=args.axes, circuit=args.circuit,
                          processors=tuple(args.processors),
                          until=_parse_until(args.until))
    for backend in space.backends:
        for processors in space.processors:
            _run_config(args, backend=backend, processors=processors)
    corpus = Corpus(args.corpus) if args.corpus else None
    if corpus is not None and len(corpus):
        print(f"corpus {args.corpus}: {len(corpus)} known failure(s)")

    def progress(outcome, summary) -> None:
        if not args.verbose:
            return
        status = "ok" if outcome.ok else "FAIL"
        print(f"  [{summary.scenarios:4d}] {status:4s} "
              f"{outcome.duration_s:6.2f}s "
              f"{outcome.scenario.describe()}")

    campaign = Campaign(space, budget_s=args.budget,
                        max_scenarios=args.max_scenarios,
                        corpus=corpus, on_scenario=progress)
    summary = campaign.run()
    print(summary.describe())
    return 0 if summary.ok else 1


#: ``--run`` keys -> (RunSpec field, value parser).
_RUN_KEYS = {"p": ("processors", int), "processors": ("processors", int),
             "backend": ("backend", str), "protocol": ("protocol", str),
             "label": ("label", str), "exec": ("exec_mode", str),
             "until": ("until", _parse_until)}


def _parse_run_spec(text: str, exec_mode: str):
    """``"backend=procs,protocol=optimistic,p=2,exec=compiled"`` ->
    a validated RunSpec; ``exec_mode`` unless the text names one."""
    from .service import RunSpec

    spec = RunSpec(exec_mode=exec_mode)
    for item in filter(None, (item.strip() for item in text.split(","))):
        key, sep, value = item.partition("=")
        if not sep or key.strip() not in _RUN_KEYS:
            raise _unreadable(
                f"--run item {item!r} is not KEY=VALUE with KEY one of "
                f"backend/protocol/p/exec/until/label")
        name, parse = _RUN_KEYS[key.strip()]
        try:
            spec = replace(spec, **{name: parse(value.strip())})
        except ValueError:
            raise _unreadable(f"--run {key.strip()}={value.strip()!r} "
                              f"is not an int") from None
    return spec.validate()


def _artifact_source(args):
    """Resolve the elab/batch design input to a service DesignSource.

    Returns ``(source, cache)``: VHDL files go through the
    content-addressed elaboration cache; built-in circuits become
    builder callables (structural-hash artifacts, no cache)."""
    from .harness.check import fresh_design
    from .service import VhdlJob
    from .vhdl.cache import ElabCache

    _refuse_two_sources(args)
    if args.circuit is not None:
        config = _run_config(args)
        return (lambda: fresh_design(config)), None
    source = _read_source(args.file)
    cache = None if args.no_cache else ElabCache(args.cache_dir)
    return VhdlJob(source=source, top=args.top), cache


def cmd_elab(args) -> int:
    """Elaborate once into a content-addressed artifact (via the cache)."""
    from .service import RunService

    source, cache = _artifact_source(args)
    service = RunService(cache=cache, max_workers=1)
    with _front_end(args.file):
        artifact, how = service.resolve(source)
    sizes = artifact.size_report()
    print(f"artifact {artifact.name}: {artifact.content_hash}")
    print(f"  resolved      : {how}"
          + ("" if cache is None else f" (cache: {cache.root})"))
    print(f"  lp graph      : {sizes['lps']} LPs "
          f"({sizes['signals']} signals, {sizes['processes']} processes, "
          f"{sizes['channels']} channels)")
    print(f"  payload       : {len(artifact.payload)} bytes")
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(artifact.to_bytes())
        print(f"  written to    : {args.output}")
    return 0


def cmd_batch(args) -> int:
    """Elaborate each design once, fan N runs onto a worker pool."""
    from .harness.check import wave_digest
    from .service import BatchJob, RunService, RunSpec

    _below("--jobs", args.jobs)
    _below("--repeat", args.repeat)
    specs = [_parse_run_spec(text, args.exec) for text in (args.run or [])]
    source, cache = _artifact_source(args)
    if not specs:
        specs = [RunSpec(backend="seq", exec_mode=args.exec)]
    specs = [spec for spec in specs for _ in range(args.repeat)]
    service = RunService(cache=cache, max_workers=args.jobs)
    with _front_end(args.file):
        batch = service.run_batch([BatchJob(design=source, runs=specs)])
    digests = set()
    for outcome in batch.outcomes:
        spec = outcome.spec
        label = spec.label or (
            f"{spec.backend}"
            + ("" if spec.backend == "seq"
               else f"/{spec.protocol}/p{spec.processors}"))
        if outcome.ok:
            digest = wave_digest(outcome.result)
            digests.add(digest)
            print(f"  [{outcome.run_index:3d}] {label:28s} ok "
                  f"{outcome.duration_s:6.2f}s  "
                  f"{outcome.result.stats.events_committed:7d} events  "
                  f"digest {digest[:12]}")
        else:
            print(f"  [{outcome.run_index:3d}] {label:28s} "
                  f"FAILED: {outcome.error}")
    summary = batch.summary()
    print(f"batch: {summary['runs']} runs, {summary['failed']} failed, "
          f"{summary['elaborations']} cold elaboration(s), "
          f"{summary['cache_hits']} cache hit(s), "
          f"{summary['wall_time_s']}s")
    print(f"  fleet: {batch.fleet.events_committed} committed, "
          f"{batch.fleet.rollbacks} rollbacks, "
          f"efficiency {batch.fleet.efficiency:.3f}")
    if len(digests) > 1:
        print(f"  WARNING: {len(digests)} distinct wave digests — "
              f"runs of one design should commit identical waves")
        return 1
    return 0 if batch.ok else 1


def cmd_report(args) -> int:
    design = _load_design(args)
    report = design.size_report()
    print(f"design {design.name}:")
    for key in ("signals", "processes", "lps", "channels"):
        print(f"  {key:10s} {report[key]}")
    from .core.model import SyncMode
    conservative = sum(
        1 for lp in design.model.lps
        if design.model.sync_modes[lp.lp_id] is SyncMode.CONSERVATIVE)
    print(f"  conservative-tagged LPs (mixed heuristic): {conservative}")
    return 0


def cmd_bench(args) -> int:
    from .analysis import measure_speedups, speedup_table
    from .circuits import build_dct, build_fsm, build_iir

    builders = {
        "fsm": lambda: build_fsm(cycles=args.cycles).design,
        "iir": lambda: build_iir().design,
        "dct": lambda: build_dct().design,
    }
    build = builders[args.circuit]
    _below("--processors", args.processors)
    _below("--cycles", args.cycles)
    curves = measure_speedups(build, args.protocols, args.processors,
                              max_steps=200_000_000)
    print(speedup_table(curves, f"{args.circuit} speedup"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel and distributed VHDL simulation "
                    "(Lungeanu & Shi, DATE 2000 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate",
                           help="run the sequential reference engine")
    _add_design_args(p_sim)
    _add_exec_arg(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    for alias in ("parallel", "run"):
        p_par = sub.add_parser(
            alias,
            help=("run a parallel backend"
                  if alias == "run"
                  else "run the modelled parallel machine"))
        p_par.add_argument("file", nargs="?", default=None,
                           help="VHDL source file (or use --circuit)")
        p_par.add_argument("--top", default=None,
                           help="top entity to elaborate (VHDL file)")
        p_par.add_argument("--until", default=None,
                           help="simulation horizon, e.g. '500ns'")
        p_par.add_argument("--trace", nargs="*", default=None,
                           help="signals to trace (default: all)")
        p_par.add_argument("--vcd", default=None,
                           help="write waveforms to this VCD file")
        p_par.add_argument("--waves", action="store_true",
                           help="print an ASCII timing diagram")
        p_par.add_argument("--circuit", default=None,
                           choices=CIRCUITS, metavar="CIRCUIT",
                           help="run a built-in circuit instead of a "
                                "VHDL file (same choices as check/fuzz)")
        p_par.add_argument("--circuit-seed", type=int, default=0,
                           help="seed for the built-in circuit builder")
        p_par.add_argument("--circuit-param", action="append",
                           default=None, metavar="KEY=VALUE",
                           help="builder override, e.g. gates=12 or "
                                "delays=0,0,1000000 (repeatable)")
        p_par.add_argument("-p", "--processors", type=int, default=4)
        p_par.add_argument("--protocol", default=None,
                           choices=PROTOCOLS,
                           help="default: dynamic on the model backend, "
                                "optimistic on threads/procs/dist")
        p_par.add_argument("--backend", default="model",
                           choices=PARALLEL_BACKENDS,
                           help="execution backend: the deterministic "
                                "modelled multiprocessor, the worker "
                                "ring taking turns in one thread, "
                                "real multiprocessing workers with "
                                "batched IPC + token-ring GVT, or "
                                "distributed TCP workers (same ring "
                                "over asyncio; see 'repro serve')")
        p_par.add_argument("--partition", default="round_robin",
                           choices=_ReadLate(".parallel.partition",
                                            "PARTITIONERS"),
                           metavar="PARTITION")
        p_par.add_argument("--hosts", nargs="+", default=None,
                           metavar="HOST:PORT",
                           help="dist backend: pre-started 'repro "
                                "serve' daemons to use, one per "
                                "worker in index order; workers "
                                "beyond the list are auto-spawned "
                                "on localhost")
        p_par.add_argument("--start-method", default=None,
                           choices=["fork", "spawn", "forkserver"],
                           help="procs-backend worker start method "
                                "(default: fork when available, else "
                                "spawn; under spawn workers rebuild "
                                "their machines from the pickled "
                                "pristine model)")
        p_par.add_argument("--timeout", type=float, default=None,
                           help="wall-clock budget in seconds "
                                "(threads/procs/dist backends; "
                                "default 120)")
        p_par.add_argument("--watchdog", type=float, default=None,
                           metavar="BOUND",
                           help="liveness watchdog bound: machine steps "
                                "without GVT progress (model backend) or "
                                "seconds (threads/procs/dist).  On by "
                                "default at a generous bound; 0 disables.  A "
                                "diagnosed stall prints a forensic "
                                "report instead of hanging")
        p_par.add_argument("--fault-plan", default=None, metavar="SPEC",
                           help="inject message-fabric faults, e.g. "
                                "'drop=0.05,dup=0.02,reorder=0.1,seed=7' "
                                "(keys: drop, dup, reorder, jitter, "
                                "spike, seed, max_drops; the reliable-"
                                "delivery layer keeps results "
                                "sequential-identical)")
        p_par.add_argument("--crash", action="append", default=None,
                           metavar="STEP:PROC",
                           help="crash processor PROC after STEP "
                                "executed events (model) or GVT "
                                "commits (threads/procs/dist) and "
                                "recover it "
                                "from its latest checkpoint "
                                "(repeatable)")
        _add_exec_arg(p_par)
        p_par.set_defaults(handler=cmd_parallel)

    p_srv = sub.add_parser(
        "serve",
        help="host distributed-backend workers on this machine "
             "(dist backend; trusted networks only — frames are "
             "pickles)")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: loopback; "
                            "bind a LAN address for remote "
                            "coordinators)")
    p_srv.add_argument("--port", type=int, default=7421,
                       help="TCP port; 0 picks an ephemeral port, "
                            "announced as 'REPRO-DIST-WORKER PORT=N' "
                            "on stdout")
    p_srv.add_argument("--once", action="store_true",
                       help="exit after serving one coordinator run "
                            "(a daemon the coordinator spawns itself "
                            "serves many, and exits with its owner)")
    p_srv.set_defaults(handler=cmd_serve)

    p_chk = sub.add_parser(
        "check",
        help="conformance-check the protocol over explored schedules")
    p_chk.add_argument("--circuit", nargs="+",
                       default=["fsm", "random"],
                       choices=CIRCUITS, metavar="CIRCUIT",
                       help="built-in circuits to explore")
    p_chk.add_argument("--schedules", type=int, default=25,
                       help="distinct interleavings to explore per "
                            "circuit")
    p_chk.add_argument("--seed", type=int, default=0,
                       help="base seed for random schedules")
    p_chk.add_argument("--circuit-seed", type=int, default=0,
                       help="seed for the random-logic circuit builder")
    p_chk.add_argument("-p", "--processors", type=int, default=2)
    p_chk.add_argument("--protocol", default=None,
                       choices=PROTOCOLS,
                       help="default: dynamic on the model backend, "
                            "optimistic on threads/procs/dist")
    p_chk.add_argument("--backend", default="model",
                       choices=PARALLEL_BACKENDS,
                       help="'model' explores controlled schedules; "
                            "'threads'/'procs'/'dist' run the "
                            "differential oracle against a ring "
                            "run (threads workers take turns in one "
                            "thread; procs interleave as the OS "
                            "picks; 'dist' spans TCP worker "
                            "processes)")
    p_chk.add_argument("--hosts", nargs="+", default=None,
                       metavar="HOST:PORT",
                       help="dist backend: pre-started 'repro serve' "
                            "daemons (default: auto-spawn localhost "
                            "workers)")
    p_chk.add_argument("--start-method", default=None,
                       choices=["fork", "spawn", "forkserver"],
                       help="worker start method for --backend procs "
                            "(spawn exercises the artifact rebuild "
                            "path; default: fork when available)")
    p_chk.add_argument("--artifact-dir", default=None,
                       help="write failing schedules here as replayable "
                            "JSON artifacts")
    p_chk.add_argument("--watchdog", type=float, default=None,
                       metavar="STEPS",
                       help="step watchdog bound for explored runs "
                            "(default: on, generous; 0 disables)")
    p_chk.add_argument("--circuit-param", action="append",
                       default=None, metavar="KEY=VALUE",
                       help="circuit-builder override, e.g. gates=12 "
                            "or delays=0,0,1000000 (repeatable; same "
                            "axes the fuzz campaign explores)")
    p_chk.add_argument("--record", default=None, metavar="PATH",
                       help="record the canonical schedule of the first "
                            "--circuit to PATH and exit")
    p_chk.add_argument("--replay", default=None, metavar="PATH",
                       help="replay a schedule artifact and re-verify it")
    # Default None: a replay uses the artifact's recorded mode unless
    # overridden; exploration/record default to the interpreter.
    _add_exec_arg(p_chk, default=None)
    p_chk.set_defaults(handler=cmd_check)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="run a differential fuzzing campaign over scenario axes")
    p_fuzz.add_argument("--budget", type=float, default=60.0,
                        metavar="SECONDS",
                        help="wall-clock campaign budget")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (same seed = same scenario "
                             "stream)")
    p_fuzz.add_argument("--corpus", default=None, metavar="DIR",
                        help="failure corpus directory: new signatures "
                             "are shrunk and saved here; known ones "
                             "only counted")
    p_fuzz.add_argument("--backend", nargs="+", default=None,
                        choices=PARALLEL_BACKENDS,
                        help="restrict the backend axis (default: all "
                             "in-process backends; dist is opt-in — it "
                             "spawns TCP worker daemons per scenario)")
    p_fuzz.add_argument("--axes", nargs="+", default=None,
                        choices=_ReadLate(".campaign.axes", "ALL_AXES"),
                        metavar="AXIS",
                        help="scenario axes to vary (default: all)")
    p_fuzz.add_argument("--circuit", default="random",
                        choices=CIRCUITS, metavar="CIRCUIT",
                        help="circuit family to fuzz")
    p_fuzz.add_argument("--max-scenarios", type=int, default=None,
                        help="stop after this many scenarios even "
                             "with budget left")
    p_fuzz.add_argument("-p", "--processors", type=int, nargs="+",
                        default=[2, 3],
                        help="processor counts to sample from")
    p_fuzz.add_argument("--until", default=None,
                        help="simulation horizon per scenario")
    p_fuzz.add_argument("-v", "--verbose", action="store_true",
                        help="print one line per scenario")
    p_fuzz.set_defaults(handler=cmd_fuzz)

    def _add_artifact_source_args(p) -> None:
        p.add_argument("file", nargs="?", default=None,
                       help="VHDL source file (or use --circuit)")
        p.add_argument("--top", default=None,
                       help="top entity to elaborate (VHDL file)")
        p.add_argument("--circuit", default=None,
                       choices=CIRCUITS, metavar="CIRCUIT",
                       help="use a built-in circuit instead of a "
                            "VHDL file")
        p.add_argument("--circuit-seed", type=int, default=0,
                       help="seed for the built-in circuit builder")
        p.add_argument("--circuit-param", action="append",
                       default=None, metavar="KEY=VALUE",
                       help="circuit-builder override (repeatable)")
        p.add_argument("--cache-dir", default=None,
                       help="elaboration cache directory (default: "
                            "~/.cache/repro/elab or $REPRO_CACHE_DIR)")
        p.add_argument("--no-cache", action="store_true",
                       help="skip the elaboration cache entirely")

    p_elab = sub.add_parser(
        "elab",
        help="elaborate once into a content-addressed artifact")
    _add_artifact_source_args(p_elab)
    p_elab.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="also write the framed artifact blob here")
    p_elab.set_defaults(handler=cmd_elab)

    p_batch = sub.add_parser(
        "batch",
        help="elaborate once, fan N runs onto a worker pool")
    _add_artifact_source_args(p_batch)
    _add_exec_arg(p_batch)
    p_batch.add_argument("--run", action="append", default=None,
                         metavar="SPEC",
                         help="one run configuration, e.g. "
                              "'backend=procs,protocol=optimistic,p=2' "
                              "(keys: backend/protocol/p/exec/until/"
                              "label, exec defaulting to --exec; "
                              "repeatable; default: one sequential run)")
    p_batch.add_argument("--repeat", type=int, default=1,
                         help="repeat every --run spec this many times")
    p_batch.add_argument("--jobs", type=int, default=4,
                         help="worker-pool width for the fan-out")
    p_batch.set_defaults(handler=cmd_batch)

    p_rep = sub.add_parser("report", help="print the LP graph inventory")
    p_rep.add_argument("file")
    p_rep.add_argument("--top", required=True)
    p_rep.add_argument("--trace", nargs="*", default=None)
    p_rep.set_defaults(handler=cmd_report)

    p_bench = sub.add_parser("bench",
                             help="sweep a built-in benchmark circuit")
    p_bench.add_argument("circuit", choices=["fsm", "iir", "dct"])
    p_bench.add_argument("--processors", type=int, nargs="+",
                         default=[1, 2, 4, 8])
    p_bench.add_argument("--protocols", nargs="+",
                         default=["optimistic", "conservative",
                                  "dynamic"])
    p_bench.add_argument("--cycles", type=int, default=8)
    p_bench.set_defaults(handler=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as failure:
        # A flag's value, a design the front end cannot read, or a run
        # no backend can run: one line, argparse's exit status for bad
        # usage.
        print(f"repro: {failure}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
