"""Every configuration the command line accepts runs or is refused.

The cases are generated from argparse's own tables: for every
subcommand, a small run that works, then that run with every
``choices`` value of every option, with 0, -1 and an out-of-range value
of every int and float option (out of range is below the least value
for a count; a port, a crash victim and a probability also have a
greatest), and with 0, -1 and an out-of-range value of every
fault-plan key.  The named cases are the findings that motivated one
validated run description.

Each case must end in one of two ways: exit status 0, or exit status 2
with exactly one ``repro:`` line on stderr, nothing on stdout and no
traceback.  A refused case must finish in under a second without
building a design or starting a worker process or daemon.

Tier-1 runs the named cases and every boundary-value case; the
``choices`` cases, which run real simulations on every backend, are
the ``slow`` full sweep.
"""

import contextlib
import io
import multiprocessing.process
import subprocess
import time

import pytest

from repro.cli import build_parser, main
from repro.vhdl.design import Design

SOURCE = """
entity tb is end tb;
architecture sim of tb is
  signal clk : std_logic := '0';
begin
  clocking : process
  begin
    for i in 1 to 2 loop
      clk <= '0'; wait for 5 ns;
      clk <= '1'; wait for 5 ns;
    end loop;
    wait;
  end process;
end sim;
"""

#: A small run of every subcommand that works: positionals, options.
BASE = {
    "simulate": (["{vhd}"], {"--top": ["tb"]}),
    "report": (["{vhd}"], {"--top": ["tb"]}),
    "run": ([], {"--circuit": ["fsm"], "-p": ["2"], "--until": ["40ns"]}),
    "parallel": ([], {"--circuit": ["fsm"], "-p": ["2"],
                      "--until": ["40ns"]}),
    "check": ([], {"--circuit": ["fsm"], "--schedules": ["1"]}),
    "fuzz": ([], {"--circuit": ["fsm"], "--backend": ["model"],
                  "--max-scenarios": ["1"], "--budget": ["30"]}),
    "elab": ([], {"--circuit": ["fsm"], "--no-cache": []}),
    "batch": ([], {"--circuit": ["fsm"], "--no-cache": []}),
    "bench": (["fsm"], {"--processors": ["1"], "--protocols":
                        ["optimistic"], "--cycles": ["1"]}),
    # Accepted, it serves until told to exit: only refusals are run.
    "serve": ([], {"--port": ["0"]}),
}

#: Flags whose values have a greatest as well as a least.
GREATEST = {"--port": 65535}

#: Fault-plan keys -> an out-of-range value (probabilities exceed 1).
FAULT_KEYS = {"drop": "1.5", "dup": "1.5", "reorder": "1.5",
              "spike": "1.5", "jitter": "-5", "seed": "-5",
              "max_drops": "-5", "reorder_magnitude": "-5",
              "spike_magnitude": "-5"}

#: The findings, each a configuration that used to run (or end in a
#: traceback, or drop a flag) and must now be one ``repro:`` line.
FINDINGS = {
    "fsm-cells-negative": ["run", "--circuit", "fsm",
                           "--circuit-param", "cells=-1"],
    "fsm-cycles-negative": ["run", "--circuit", "fsm",
                            "--circuit-param", "cycles=-2"],
    "check-cycles-zero": ["check", "--circuit", "fsm",
                          "--circuit-param", "cycles=0"],
    "batch-model-p0": ["batch", "--circuit", "fsm",
                       "--run", "backend=model,p=0"],
    "batch-unknown-backend": ["batch", "--circuit", "fsm",
                              "--run", "backend=nope"],
    "batch-unknown-exec": ["batch", "--circuit", "fsm",
                           "--run", "exec=nope"],
    "batch-ring-dynamic": ["batch", "--circuit", "fsm",
                           "--run", "backend=threads,protocol=dynamic"],
    "batch-p-not-an-int": ["batch", "--circuit", "fsm", "--run", "p=x"],
    "batch-repeat-zero": ["batch", "--circuit", "fsm", "--repeat", "0"],
    "fuzz-max-scenarios-zero": ["fuzz", "--max-scenarios", "0"],
    "procs-hosts-dropped": ["run", "--circuit", "fsm", "--backend",
                            "procs", "--hosts", "a:1"],
    "model-timeout-dropped": ["run", "--circuit", "fsm",
                              "--timeout", "5"],
}


def _argv(command, replace=None, positional=None):
    positionals, options = BASE[command]
    options = dict(options)
    if replace is not None:
        options.pop(replace[0], None)
        options[replace[0]] = replace[1]
    argv = [command] + ([positional] if positional else list(positionals))
    for flag, values in options.items():
        argv += [flag] + values
    return argv


def generate():
    """``(id, argv, boundary)`` for every generated case."""
    subparsers = build_parser()._subparsers._group_actions[0].choices
    cases = []
    for command, sub in subparsers.items():
        flags = {action.option_strings[0]: action
                 for action in sub._actions if action.option_strings}
        if command != "serve":
            cases.append((command, _argv(command), True))
        for action in sub._actions:
            if not action.option_strings and action.choices is not None:
                cases += [(f"{command} {value}",
                           _argv(command, positional=value), False)
                          for value in action.choices]
        for flag, action in flags.items():
            if action.choices is not None and command != "serve":
                for value in action.choices:
                    cases.append((f"{command} {flag} {value}",
                                  _argv(command, (flag, [str(value)])),
                                  False))
            if action.type in (int, float):
                values = ["0", "-1"]
                if flag in GREATEST:
                    values.append(str(GREATEST[flag] + 1))
                for value in values:
                    argv = _argv(command, (flag, [value]))
                    if command == "serve" and value == "0":
                        continue
                    cases.append((f"{command} {flag} {value}", argv, True))
        if "--fault-plan" in flags:
            for key, beyond in FAULT_KEYS.items():
                for value in ("0", "-1", beyond):
                    cases.append((f"{command} --fault-plan {key}={value}",
                                  _argv(command, ("--fault-plan",
                                                  [f"{key}={value}"])),
                                  True))
        if "--crash" in flags:
            for value in ("0:0", "-1:0", "1:-1", "1:2"):
                cases.append((f"{command} --crash {value}",
                              _argv(command) + [f"--crash={value}"], True))
    return cases


CASES = generate()


@pytest.fixture
def vhd(tmp_path):
    path = tmp_path / "tb.vhd"
    path.write_text(SOURCE)
    return str(path)


@pytest.fixture
def starts(monkeypatch):
    """Count designs built and worker processes or daemons started."""
    counts = {"designs": 0, "processes": 0}

    def counting(cls, method, key):
        original = getattr(cls, method)

        def counted(self, *args, **kwargs):
            counts[key] += 1
            return original(self, *args, **kwargs)
        monkeypatch.setattr(cls, method, counted)

    counting(Design, "__init__", "designs")
    counting(multiprocessing.process.BaseProcess, "start", "processes")
    counting(subprocess.Popen, "__init__", "processes")
    return counts


def run_case(argv, vhd, starts):
    argv = [arg.replace("{vhd}", vhd) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    wall = time.perf_counter() - start
    err = err.getvalue()
    assert "Traceback" not in err, err
    if code == 0:
        return code
    assert code == 2, (code, out.getvalue(), err)
    assert out.getvalue() == "", out.getvalue()
    assert err.startswith("repro: ") and err.count("\n") == 1, err
    assert wall < 1.0, wall
    assert starts == {"designs": 0, "processes": 0}, starts
    return code


def test_the_sweep_covers_every_subcommand():
    commands = {argv[0] for _id, argv, _boundary in CASES}
    assert commands == set(BASE)


@pytest.mark.parametrize(
    "argv", [argv for _id, argv, boundary in CASES if boundary],
    ids=[case_id for case_id, _argv, boundary in CASES if boundary])
def test_boundary_values(argv, vhd, starts):
    run_case(argv, vhd, starts)


@pytest.mark.parametrize("name", sorted(FINDINGS))
def test_findings_are_refused(name, vhd, starts):
    assert run_case(FINDINGS[name], vhd, starts) == 2


@pytest.mark.slow
@pytest.mark.parametrize(
    "argv", [argv for _id, argv, boundary in CASES if not boundary],
    ids=[case_id for case_id, _argv, boundary in CASES if not boundary])
def test_every_choice(argv, vhd, starts):
    from repro.parallel.dist import shutdown_local_daemons

    try:
        run_case(argv, vhd, starts)
    finally:
        shutdown_local_daemons()
