"""The differential exec-mode matrix: compiled ≡ interpreted, always.

``repro.vhdl.compile`` lowers every frontend-elaborated process body
to a flat closure program.  The compiler's correctness contract is
*bit-identity*: for any circuit, backend, protocol and fault plan, a
compiled run must commit exactly the waves, finals and event counts
the tree-walking interpreter commits.  This file is that contract:

* sequential differential over the VHDL-text workloads (the FSM ring,
  the lattice IIR bank, seeded random behavioural programs — the
  circuits whose processes actually go through the interpreter);
* parallel differential across protocols, backends and hostile fault
  plans (compiled Time-Warp rollback, conservative blocking, procs
  checkpointing all reuse the frame snapshot machinery);
* programmatic circuits (gates / random_logic / iir / dct) under
  ``exec_mode="compiled"``: lowering is a no-op there and the knob
  must be harmless through every engine;
* pickle round-trips of the compiler's state carriers (``Frame``,
  wait-until thunks, whole ``CompiledBody`` instances), mirroring
  ``test_event.py``'s IPC-boundary tests — the procs backend ships
  exactly these objects inside checkpoints.
"""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.circuits import (build_dct, build_iir, build_random,
                            build_fsm_from_vhdl, build_iir_from_vhdl,
                            build_random_behavioral, iir_vhdl_reference)
from repro.fabric import FaultPlan
from repro.config import RunConfig
from repro.harness import check_backend, wave_digest
from repro.vhdl import (CompiledBody, Frame, simulate, simulate_parallel,
                        vector_to_int)
from repro.vhdl.compile import _UntilThunk, lower_design
from repro.vhdl.frontend import VhdlRuntimeError, elaborate
from repro.vhdl.frontend.interp import InterpretedBody
from tests.strategies import (PROTOCOLS, STATIC_PROTOCOLS, prop_settings,
                              small_random_design, topologies)

#: The VHDL-text circuit families of the differential matrix:
#: name -> fresh-design builder (a Design is single-use).
VHDL_BUILDERS = {
    "fsm-vhdl": lambda: build_fsm_from_vhdl(cells=4, cycles=6),
    "iir-vhdl": lambda: build_iir_from_vhdl(chans=2, sections=2,
                                            width=8, cycles=8),
    "behav": lambda: build_random_behavioral(3, processes=3, cycles=6),
}


def assert_identical(a, b):
    """Bit-identity of two runs: waves, digests, finals, commits."""
    assert a.traces == b.traces
    assert wave_digest(a) == wave_digest(b)
    assert a.finals == b.finals
    assert a.stats.events_committed == b.stats.events_committed


# ---------------------------------------------------------------------------
# Sequential differential: the circuits that actually interpret
# ---------------------------------------------------------------------------
class TestSequentialDifferential:
    @pytest.mark.parametrize("circuit", sorted(VHDL_BUILDERS))
    def test_vhdl_circuit_bit_identical(self, circuit):
        build = VHDL_BUILDERS[circuit]
        interp = simulate(build())
        compiled = simulate(build(), exec_mode="compiled")
        assert_identical(interp, compiled)

    def test_iir_bank_matches_python_reference_compiled(self):
        result = simulate(build_iir_from_vhdl(chans=2, sections=2,
                                              width=8, cycles=16),
                          exec_mode="compiled")
        y = result.finals["y"]
        got = [vector_to_int(y[c * 8:(c + 1) * 8]) for c in range(2)]
        assert got == iir_vhdl_reference(chans=2, sections=2, width=8,
                                         cycles=16)

    @prop_settings(max_examples=12)
    @given(seed=st.integers(0, 10**4))
    def test_random_behavioral_programs_bit_identical(self, seed):
        # The generator draws from the full statement subset
        # (if/case/for/while/exit/next, slices, shifts, waits); any
        # divergence here is a lowering bug with the seed as repro.
        interp = simulate(build_random_behavioral(seed, processes=3,
                                                  cycles=5))
        compiled = simulate(build_random_behavioral(seed, processes=3,
                                                    cycles=5),
                            exec_mode="compiled")
        assert_identical(interp, compiled)

    def test_unknown_exec_mode_rejected(self):
        with pytest.raises(ValueError):
            simulate(build_fsm_from_vhdl(2, 2), exec_mode="jit")
        with pytest.raises(ValueError):
            simulate_parallel(build_fsm_from_vhdl(2, 2), 2,
                              exec_mode="jit")


# ---------------------------------------------------------------------------
# Parallel differential: protocols, backends, faults
# ---------------------------------------------------------------------------
class TestParallelDifferential:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_model_backend_all_protocols(self, protocol):
        oracle = simulate(VHDL_BUILDERS["behav"]())
        run = simulate_parallel(VHDL_BUILDERS["behav"](), 3,
                                protocol=protocol, exec_mode="compiled")
        assert_identical(oracle, run)

    def test_model_backend_under_hostile_faults(self):
        # Compiled rollback over a misbehaving fabric: drops, dups and
        # reordering force Time-Warp rollbacks through Frame.restore.
        plan = FaultPlan(seed=11, drop=0.08, duplicate=0.03,
                         reorder=0.2, jitter=1.0)
        oracle = simulate(VHDL_BUILDERS["fsm-vhdl"]())
        run = simulate_parallel(VHDL_BUILDERS["fsm-vhdl"](), 3,
                                protocol="optimistic",
                                exec_mode="compiled", fault_plan=plan)
        assert_identical(oracle, run)

    def test_procs_backend_checkpoint_rollback(self):
        # The acceptance-criterion run: real multiprocessing workers,
        # optimistic protocol — LP states (compiled frames included)
        # are pickled into checkpoints and restored on rollback.
        run = check_backend(RunConfig(backend="procs",
                                      protocol="optimistic", processors=2,
                                      exec_mode="compiled",
                                      circuit="behav"))
        assert run.ok, run.violations

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", ("threads", "procs"))
    @pytest.mark.parametrize("protocol", STATIC_PROTOCOLS)
    def test_real_backends_full_matrix(self, backend, protocol):
        for circuit in sorted(VHDL_BUILDERS):
            run = check_backend(RunConfig(backend=backend,
                                          protocol=protocol, processors=2,
                                          exec_mode="compiled",
                                          circuit=circuit))
            assert run.ok, (circuit, run.violations)

    @pytest.mark.slow
    def test_procs_crash_recovery_compiled(self):
        # Kill a worker mid-run: recovery re-loads the checkpointed
        # (pickled) compiled bodies and must still match the oracle.
        plan = FaultPlan(seed=5).with_crashes((8, 1))
        run = check_backend(RunConfig(backend="procs",
                                      protocol="optimistic", processors=2,
                                      exec_mode="compiled", fault_plan=plan,
                                      circuit="behav"))
        assert run.ok, run.violations


# ---------------------------------------------------------------------------
# Programmatic circuits: the knob must be harmless
# ---------------------------------------------------------------------------
class TestProgrammaticCircuitsUnchanged:
    @prop_settings(max_examples=8)
    @given(params=topologies, seed=st.integers(0, 10**4),
           protocol=st.sampled_from(PROTOCOLS))
    def test_random_logic_topologies(self, params, seed, protocol):
        oracle = simulate(build_random(seed, **params).design)
        run = simulate_parallel(build_random(seed, **params).design, 2,
                                protocol=protocol, exec_mode="compiled")
        assert_identical(oracle, run)

    def test_small_random_design_sequential(self):
        interp = simulate(small_random_design(7))
        compiled = simulate(small_random_design(7),
                            exec_mode="compiled")
        assert_identical(interp, compiled)

    @pytest.mark.slow
    @pytest.mark.parametrize("build", (
        lambda: build_iir(level="gate").design,
        lambda: build_iir(level="behavioral").design,
        lambda: build_dct().design,
    ), ids=("iir-gate", "iir-behavioral", "dct"))
    def test_iir_dct_compiled_knob(self, build):
        interp = simulate(build())
        compiled = simulate(build(), exec_mode="compiled")
        assert_identical(interp, compiled)


# ---------------------------------------------------------------------------
# Language-feature differential: one process per feature, both modes
# ---------------------------------------------------------------------------
def _feature_src(body, decls="", signals="", extra=""):
    return f"""
entity t is end t;
architecture a of t is
  signal done : std_logic := '0';
  signal outv : std_logic_vector(7 downto 0) := "00000000";
{signals}
begin
{extra}
  main : process
{decls}
  begin
{body}
    done <= '1';
    wait;
  end process;
end a;
"""


class TestLanguageFeatureDifferential:
    """Interp vs compiled on each lowering-pass special case.

    The workload circuits exercise the common statement mix; these
    pin the *rare* paths — delayed/multi-element waveforms, transport
    and reject clauses, dynamic indices and slices, aggregates,
    attributes, assertions — where the compiler has dedicated op
    shapes (constant-folded vs dynamic) that must stay bit-identical
    to the interpreter, including which error fires and when.
    """

    def run_both(self, body, **kw):
        interp = simulate(elaborate(_feature_src(body, **kw), top="t"))
        compiled = simulate(elaborate(_feature_src(body, **kw), top="t"),
                            exec_mode="compiled")
        assert_identical(interp, compiled)
        return compiled

    def raises_both(self, body, **kw):
        messages = []
        for mode in ("interp", "compiled"):
            with pytest.raises(VhdlRuntimeError) as err:
                simulate(elaborate(_feature_src(body, **kw), top="t"),
                         exec_mode=mode)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_process_constants(self):
        res = self.run_both("""
    outv <= to_unsigned(k * 2 + 1, width);
    wait for 1 ns;
""", decls="""
    constant k : integer := 5;
    constant width : integer := 8;
""")
        assert vector_to_int(res.finals["outv"]) == 11

    def test_multi_element_delayed_waveform(self):
        res = self.run_both("""
    outv <= "00000001", "00000010" after 2 ns, "00000100" after 4 ns;
    wait for 10 ns;
""")
        assert vector_to_int(res.finals["outv"]) == 4

    def test_transport_delay_assign(self):
        # Two overlapping transport postings: the second must not
        # preempt the first (transport appends, inertial sweeps).
        self.run_both("""
    outv <= transport "00000001" after 3 ns;
    outv <= transport "00000010" after 1 ns;
    wait for 10 ns;
""")

    def test_reject_inertial_assign(self):
        # A reject window shorter than the delay: pulses narrower than
        # 1 ns are swept, and the compiled reject-closure path must
        # agree with the interpreter's marking rules.
        self.run_both("""
    outv <= reject 1 ns inertial "00000011" after 2 ns;
    wait for 5 ns;
""")

    def test_dynamic_index_signal_assign(self):
        # Loop-variable element index: the position cannot fold at
        # compile time, so this takes the dynamic-place op.
        res = self.run_both("""
    for i in 0 to 7 loop
      outv(i) <= '1';
      wait for 1 ns;
    end loop;
""")
        assert vector_to_int(res.finals["outv"]) == 255

    def test_dynamic_slice_signal_assign(self):
        res = self.run_both("""
    i := 3;
    outv(i downto i - 1) <= "11";
    wait for 1 ns;
""", decls="    variable i : integer := 0;")
        assert vector_to_int(res.finals["outv"]) == 0b1100

    def test_delayed_element_assign(self):
        # Element target with a delay: not the lean single-assignment
        # shape, so the generic element waveform op runs.
        res = self.run_both("""
    outv(0) <= '1' after 2 ns;
    outv(7) <= '1' after 1 ns;
    wait for 5 ns;
""")
        assert vector_to_int(res.finals["outv"]) == 0b10000001

    def test_dynamic_index_variable_assign(self):
        res = self.run_both("""
    for i in 0 to 7 loop
      if i mod 2 = 0 then
        v(i) := '1';
      end if;
    end loop;
    outv <= v;
    wait for 1 ns;
""", decls="    variable v : std_logic_vector(7 downto 0)"
           " := \"00000000\";")
        assert vector_to_int(res.finals["outv"]) == 0b01010101

    def test_dynamic_slice_variable_assign(self):
        res = self.run_both("""
    i := 2;
    v(i + 1 downto i) := "11";
    outv <= v;
    wait for 1 ns;
""", decls="""
    variable i : integer := 0;
    variable v : std_logic_vector(7 downto 0) := "00000000";
""")
        assert vector_to_int(res.finals["outv"]) == 0b1100

    def test_aggregate_others(self):
        res = self.run_both("""
    outv <= (others => '1');
    wait for 1 ns;
""")
        assert vector_to_int(res.finals["outv"]) == 255

    def test_aggregate_positional_with_others(self):
        res = self.run_both("""
    outv <= ('1', '0', '1', others => '0');
    wait for 1 ns;
""")
        assert vector_to_int(res.finals["outv"]) == 0b10100000

    def test_event_attribute(self):
        res = self.run_both("""
    wait on s;
    if s'event and s = '1' then
      outv(0) <= '1';
    end if;
    wait for 1 ns;
""", signals="  signal s : std_logic := '0';",
            extra="""
  tick : process
  begin
    wait for 1 ns;
    s <= '1';
    wait;
  end process;
""")
        assert vector_to_int(res.finals["outv"]) == 1

    def test_length_attribute(self):
        res = self.run_both("""
    outv <= to_unsigned(outv'length, 8);
    wait for 1 ns;
""")
        assert vector_to_int(res.finals["outv"]) == 8

    def test_report_and_assert_passing(self):
        self.run_both("""
    report "hello from both modes";
    assert to_integer(outv) = 0
      report "initial value" severity note;
    assert false report "expected" severity warning;
    wait for 1 ns;
""")

    def test_assert_failure_raises_identically(self):
        self.raises_both("""
    assert false report "boom";
""")

    def test_unsupported_attribute_raises_identically(self):
        self.raises_both("""
    outv <= to_unsigned(outv'left, 8);
""")

    def test_rising_edge_non_signal_raises_identically(self):
        self.raises_both("""
    if rising_edge(outv(0)) then
      outv <= "00000001";
    end if;
""")


# ---------------------------------------------------------------------------
# Pickle round-trips (mirrors test_event.py's IPC-boundary tests)
# ---------------------------------------------------------------------------
class TestFramePickling:
    """Round-trips across the multiprocess backend's IPC boundary."""

    def roundtrip(self, obj):
        return pickle.loads(pickle.dumps(obj))

    def test_frame_roundtrip_preserves_resume_point(self):
        frame = Frame()
        frame.pc = 17
        frame.loops.append([3, 9])
        frame.loops.append([0, 2])
        back = self.roundtrip(frame)
        assert back == frame
        assert back.pc == 17
        assert back.loops == [[3, 9], [0, 2]]

    def test_frame_snapshot_restore_identity(self):
        frame = Frame()
        frame.pc = 5
        frame.loops.append([1, 4])
        snap = frame.snapshot()
        frame.pc = 99
        frame.loops.clear()
        frame.restore(snap)
        assert frame.pc == 5 and frame.loops == [[1, 4]]
        # restore mutates in place: closure-captured identity survives.
        loops = frame.loops
        frame.restore(snap)
        assert frame.loops is loops

    def _compiled_bodies(self, design):
        lower_design(design)
        return [lp.body for lp in design.processes
                if isinstance(lp.body, CompiledBody)]

    def test_compiled_bodies_roundtrip_mid_run(self):
        design = build_random_behavioral(4, processes=3, cycles=5)
        simulate(design, exec_mode="compiled")
        bodies = [lp.body for lp in design.processes
                  if isinstance(lp.body, CompiledBody)]
        assert bodies, "behav circuit must have compiled processes"
        for body in bodies:
            back = self.roundtrip(body)
            # Programs recompile lazily after unpickling...
            assert back._ops is None
            # ...and the restored state snapshot is bit-identical.
            assert back.snapshot() == body.snapshot()

    def test_wait_until_thunk_roundtrip(self):
        design = build_random_behavioral(1, processes=1, cycles=4)
        bodies = self._compiled_bodies(design)
        thunk = _UntilThunk(bodies[0], 0)
        back = self.roundtrip(thunk)
        assert isinstance(back, _UntilThunk)
        assert back.index == 0
        assert isinstance(back.body, CompiledBody)

    def test_wait_objects_of_a_run_are_picklable(self):
        # ProcessLP.state_attrs includes the pending Wait, so whatever
        # a compiled run leaves there must cross the IPC boundary.
        design = build_random_behavioral(2, processes=2, cycles=4)
        simulate(design, exec_mode="compiled")
        for lp in design.processes:
            self.roundtrip(lp.wait)

    def test_interp_bodies_replaced_only_on_frontend_designs(self):
        vhdl = build_random_behavioral(5, processes=2, cycles=3)
        assert all(isinstance(lp.body, InterpretedBody)
                   for lp in vhdl.processes)
        lower_design(vhdl)
        assert all(isinstance(lp.body, CompiledBody)
                   for lp in vhdl.processes)
        prog = build_random(0, gates=4, registers=1, stimulus_bits=1,
                            cycles=2).design
        kinds = {type(lp.body) for lp in prog.processes}
        lower_design(prog)
        assert {type(lp.body) for lp in prog.processes} == kinds
