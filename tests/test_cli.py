"""Command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _parse_until, main

SOURCE = """
entity tb is end tb;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal q : std_logic_vector(1 downto 0) := "00";
begin
  clocking : process
  begin
    for i in 1 to 4 loop
      clk <= '0'; wait for 5 ns;
      clk <= '1'; wait for 5 ns;
    end loop;
    wait;
  end process;
  count : process(clk)
  begin
    if rising_edge(clk) then
      q <= q + 1;
    end if;
  end process;
end sim;
"""


@pytest.fixture()
def vhd(tmp_path):
    path = tmp_path / "tb.vhd"
    path.write_text(SOURCE)
    return str(path)


class TestParseUntil:
    def test_units(self):
        assert _parse_until("5ns") == 5 * 10**6
        assert _parse_until("1 us") == 10**9
        assert _parse_until("250") == 250
        assert _parse_until(None) is None


class TestCommands:
    def test_simulate(self, vhd, capsys):
        assert main(["simulate", vhd, "--top", "tb"]) == 0
        out = capsys.readouterr().out
        assert "LPs" in out
        assert "events" in out

    def test_simulate_with_vcd(self, vhd, tmp_path, capsys):
        vcd = str(tmp_path / "w.vcd")
        assert main(["simulate", vhd, "--top", "tb",
                     "--vcd", vcd]) == 0
        assert "$enddefinitions" in open(vcd).read()

    def test_simulate_until(self, vhd, capsys):
        assert main(["simulate", vhd, "--top", "tb",
                     "--until", "12ns"]) == 0
        out = capsys.readouterr().out
        assert "final time" in out

    def test_parallel(self, vhd, capsys):
        assert main(["parallel", vhd, "--top", "tb", "-p", "3",
                     "--protocol", "optimistic"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "rollbacks" in out

    def test_report(self, vhd, capsys):
        assert main(["report", vhd, "--top", "tb"]) == 0
        out = capsys.readouterr().out
        assert "signals" in out
        assert "conservative-tagged" in out

    def test_trace_selection(self, vhd, capsys):
        assert main(["simulate", vhd, "--top", "tb",
                     "--trace", "clk"]) == 0
        out = capsys.readouterr().out
        assert "clk:" in out
        assert "q:" not in out

    def test_bench_tiny(self, capsys):
        assert main(["bench", "fsm", "--processors", "1", "2",
                     "--protocols", "optimistic", "--cycles", "2"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "optimistic" in out

    def test_bad_protocol_rejected(self, vhd):
        with pytest.raises(SystemExit):
            main(["parallel", vhd, "--top", "tb",
                  "--protocol", "psychic"])


class TestRingCommandLine:
    """What ``run`` accepts it acts on; what the machine rejects is one
    ``repro:`` line and exit status 2, not a traceback."""

    @staticmethod
    def one_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("backend", ["threads", "procs", "dist"])
    def test_default_protocol_on_a_ring_backend(self, backend, capsys):
        # --protocol defaults to the ring's own, optimistic; dynamic,
        # which only the model runs, is refused when asked for.
        assert main(["run", "--circuit", "fsm", "-p", "2",
                     "--backend", backend]) == 0
        assert f"({backend} backend, optimistic," \
            in capsys.readouterr().out
        assert main(["check", "--circuit", "fsm",
                     "--backend", backend]) == 0
        assert "CLEAN" in capsys.readouterr().out
        for command in (["run", "--circuit", "fsm", "-p", "2"],
                        ["check", "--circuit", "fsm"]):
            assert main(command + ["--backend", backend,
                                   "--protocol", "dynamic"]) == 2
            assert "static protocols only" in self.one_line(capsys)

    def test_default_protocol_on_the_model(self, capsys):
        assert main(["run", "--circuit", "fsm", "-p", "2"]) == 0
        assert "(model backend, dynamic," in capsys.readouterr().out

    @pytest.mark.parametrize("circuit, taken", [
        ("fsm", "cells, cycles"), ("random", "gates"),
        ("iir", "sections"), ("fsm-vhdl", "cells, cycles"),
        ("iir-vhdl", "chans"), ("behav", "processes, cycles")])
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_a_circuit_parameter_its_builder_does_not_take(
            self, command, circuit, taken, capsys):
        """Refused with the names the builder does take, not a
        ``TypeError`` traceback and not silently ignored."""
        assert main([command, "--circuit", circuit,
                     "--circuit-param", "nonsense=3"]) == 2
        err = self.one_line(capsys)
        assert f"circuit {circuit!r} takes no parameter nonsense; " \
               f"it takes " in err
        assert taken in err

    def test_every_topology_axis_is_a_random_parameter(self):
        from repro.circuits.random_logic import TOPOLOGY_SPACE
        from repro.harness.check import refuse_params

        for circuit in ("random", "random-full"):
            refuse_params(circuit, TOPOLOGY_SPACE)

    @pytest.mark.parametrize("circuit", ["fsm", "behav"])
    def test_fuzz_keeps_the_topology_axes_a_circuit_takes(
            self, circuit, capsys):
        """The topology axis is on by default; a circuit that is not
        random logic runs with the axes its builder takes."""
        assert main(["fuzz", "--circuit", circuit, "--backend", "model",
                     "--max-scenarios", "2", "--seed", "3"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_negative_watchdog(self, command, capsys):
        assert main([command, "--circuit", "fsm", "--watchdog", "-1"]) == 2
        assert "--watchdog must be at least 0, got -1" \
            in self.one_line(capsys)

    def test_bad_crash_spec(self, capsys):
        assert main(["run", "--circuit", "fsm", "--crash", "foo"]) == 2
        assert "--crash 'foo'" in self.one_line(capsys)

    def test_bad_until(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--circuit", "fsm", "--until", "abc"])
        assert exit_.value.code == 2
        assert "--until 'abc'" in self.one_line(capsys)

    @pytest.mark.parametrize("spec, message", [
        ("drop=2", "drop must be a probability"),
        ("bogus=1", "unknown fault-plan key 'bogus'")])
    def test_bad_fault_plan(self, spec, message, capsys):
        assert main(["run", "--circuit", "fsm", "--fault-plan", spec]) == 2
        assert message in self.one_line(capsys)

    @pytest.mark.parametrize("argv, message", [
        (["fuzz", "-p", "0"], "-p/--processors must be at least 1"),
        (["fuzz", "-p", "2", "0"], "-p/--processors must be at least 1"),
        (["check", "--schedules", "0"], "--schedules must be at least 1"),
        (["check", "--circuit", "fsm", "-p", "0"],
         "-p/--processors must be at least 1"),
        (["bench", "fsm", "--processors", "0"],
         "--processors must be at least 1"),
        (["batch", "--circuit", "fsm", "--jobs", "0"],
         "--jobs must be at least 1")])
    def test_count_below_one(self, argv, message, capsys):
        """A count of zero is refused, not run (a traceback, or one
        schedule checked and reported ``OK``)."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: ")
        assert captured.err.count("\n") == 1 and message in captured.err

    def test_timeout_on_the_model(self, capsys):
        """The modelled machine has no wall deadline: a ``--timeout``
        given to it is refused, not dropped; a ring takes it."""
        assert main(["run", "--circuit", "fsm", "--timeout", "5"]) == 2
        assert "--timeout applies to the threads / procs / dist " \
               "backends only" in self.one_line(capsys)
        assert main(["run", "--circuit", "fsm", "-p", "2",
                     "--backend", "threads", "--timeout", "5"]) == 0

    def test_run_waves_renders(self, vhd, capsys):
        assert main(["run", vhd, "--top", "tb", "-p", "2",
                     "--waves"]) == 0
        out = capsys.readouterr().out
        assert "clk :" in out and "ns/column" in out


class TestUnreadableDesign:
    """A VHDL file the front end cannot read is one ``repro:`` line and
    exit status 2 in every command that reads one, not a traceback."""

    #: case -> (file text or None for no file, --top, what the line says)
    INPUTS = {"does-not-parse": ("garbage\n", "tb",
                                 "line 1: expected entity or architecture"),
              "unknown-top": (SOURCE, "x", "no entity 'x'"),
              "unknown-component": (
                  SOURCE.replace("begin\n  clocking",
                                 "begin\n  u1 : missing port map (a => clk);"
                                 "\n  clocking"),
                  "tb", "instance u1: no entity named 'missing'"),
              "unsupported-type": (SOURCE.replace("std_logic :=", "real :="),
                                   "tb", "unsupported type 'real'"),
              "missing-file": (None, "tb",
                               "No such file or directory")}

    @pytest.mark.parametrize("case", sorted(INPUTS))
    @pytest.mark.parametrize("command",
                             ["simulate", "elab", "run", "report", "batch"])
    def test_one_line(self, command, case, tmp_path, capsys):
        text, top, message = self.INPUTS[case]
        path = tmp_path / "design.vhd"
        if text is not None:
            path.write_text(text)
        argv = [command, str(path), "--top", top]
        if command in ("elab", "batch"):
            argv.append("--no-cache")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: ")
        assert captured.err.count("\n") == 1
        assert str(path) in captured.err and message in captured.err

    def test_the_service_keeps_raising(self):
        from repro.service import RunService, VhdlJob
        from repro.vhdl.frontend import ParseError

        with pytest.raises(ParseError):
            RunService().resolve(VhdlJob(source="garbage", top="tb"))
        with pytest.raises(KeyError, match="no entity 'x'"):
            RunService().resolve(VhdlJob(source=SOURCE, top="x"))


class TestCheckCommand:
    """`repro check`: conformance exploration, record/replay, exit codes."""

    def test_check_clean_exit_zero(self, capsys):
        assert main(["check", "--circuit", "fsm",
                     "--schedules", "4", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "distinct interleavings" in out
        assert "OK" in out

    def test_check_both_circuits(self, capsys):
        assert main(["check", "--schedules", "3"]) == 0
        out = capsys.readouterr().out
        assert "fsm:" in out
        assert "random:" in out

    def test_record_replay_roundtrip(self, tmp_path, capsys):
        artifact = str(tmp_path / "schedule.json")
        assert main(["check", "--circuit", "fsm",
                     "--record", artifact]) == 0
        recorded = capsys.readouterr().out
        assert "recorded fsm schedule" in recorded

        from repro.harness import Schedule
        schedule = Schedule.load(artifact)
        assert schedule.config.circuit == "fsm"
        assert schedule.wave_digest

        assert main(["check", "--replay", artifact]) == 0
        replayed = capsys.readouterr().out
        assert "CLEAN" in replayed

    def test_replay_missing_artifact_exits_one(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["check", "--replay", missing]) == 1
        assert "cannot load" in capsys.readouterr().out

    def test_replay_bad_version_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 42}')
        assert main(["check", "--replay", str(bad)]) == 1
        assert "cannot load" in capsys.readouterr().out

    def test_failing_check_exits_one(self, tmp_path, capsys,
                                     monkeypatch):
        from repro.harness import Scheduler
        monkeypatch.setattr(Scheduler, "tie_key",
                            lambda self, time: time[0])
        code = main(["check", "--circuit", "fsm", "--schedules", "8",
                     "--seed", "7",
                     "--artifact-dir", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "artifact:" in out

    def test_bad_circuit_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--circuit", "nonexistent"])


class TestLazyCancellationRetired:
    """Lazy cancellation is no longer a run mode: its flag and its
    campaign axis are gone, and artifacts recorded with it fail loudly."""

    def artifact(self, tmp_path, capsys, flag):
        path = tmp_path / "schedule.json"
        assert main(["check", "--circuit", "fsm",
                     "--record", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        assert "lazy_cancellation" not in data  # no longer written
        if flag is not None:
            data["lazy_cancellation"] = flag
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("flag", [None, False], ids=["absent", "false"])
    def test_old_artifact_without_it_replays(self, tmp_path, capsys, flag):
        path = self.artifact(tmp_path, capsys, flag)
        assert main(["check", "--replay", path]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_artifact_recorded_with_it_is_refused(self, tmp_path, capsys):
        path = self.artifact(tmp_path, capsys, True)
        assert main(["check", "--replay", path]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: cannot load schedule artifact")
        assert "lazy cancellation, which was retired" in lines[0]

    def test_scenario_does_not_write_it(self):
        from repro.campaign import Scenario
        data = Scenario(backend="model", protocol="mixed").to_dict()
        assert "lazy_cancellation" not in data

    @pytest.mark.parametrize("argv,message", [
        (["check", "--lazy-cancellation"],
         "unrecognized arguments: --lazy-cancellation"),
        (["fuzz", "--axes", "lazy"], "invalid choice: 'lazy'"),
    ], ids=["check-flag", "fuzz-axis"])
    def test_flag_and_axis_are_gone(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err


def test_serve_entry_point_imports_only_what_a_worker_needs():
    """`repro serve` is the start-up path of every auto-spawned dist
    daemon: resolving it must not drag in the front-end, the compiler,
    analysis, the campaign or the harness (the shipped model imports
    whatever it references when it is unpickled)."""
    probe = (
        "import sys\n"
        "import repro.cli as cli\n"
        "args = cli.build_parser().parse_args(['serve', '--port', '0'])\n"
        "assert args.handler is cli.cmd_serve\n"
        "from repro.parallel.dist import serve\n"
        "heavy = [m for m in sys.modules if m.startswith(("
        "'repro.vhdl.frontend', 'repro.vhdl.compile', 'repro.analysis',"
        " 'repro.campaign', 'repro.harness'))]\n"
        "assert not heavy, heavy\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
