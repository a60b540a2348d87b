"""Scenario axes: what the fuzzing campaign can vary, and how it samples.

A :class:`Scenario` is one fully-specified configuration — circuit
topology, fault plan, backend, protocol, schedule seed, execution
mode — everything needed to run it and to reproduce it.  It is
frozen and hashable so the campaign can count *distinct* scenarios by
value, not by object identity.

:class:`ScenarioSpace` is the seeded sampler.  It guarantees coverage
first — every enabled ``backend × protocol`` cell is emitted once
before any weighted sampling — then draws scenarios forever, weighted
toward the modelled backend (cheap, deterministic, and the only one
whose interleavings the harness can steer and shrink).  Real backends
(threads / procs) run fewer, more expensive scenarios whose
interleaving the harness does not steer — threads workers take turns
in one thread in a fixed order, the OS picks for procs; their value is
differential, not exploratory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from ..circuits.random_logic import sample_topology
from ..config import BACKEND_PROTOCOLS, RunConfig
from ..fabric.plan import FaultPlan
from ..harness.check import circuit_params

#: Backends excluded from the default campaign mix.  The dist backend
#: spawns TCP worker daemons per scenario — far too slow for tier-1
#: fuzzing — so it only runs when named explicitly
#: (``repro fuzz --backends dist``).
OPT_IN_BACKENDS: Tuple[str, ...] = ("dist",)

#: Toggleable scenario axes (beyond the always-on backend × protocol
#: grid).  ``--axes`` on the CLI enables a subset.  ``"exec"`` adds
#: the process-execution-mode axis (interp × compiled, see
#: :data:`repro.config.EXEC_MODES`): with it on, every
#: ``backend × protocol`` coverage cell is emitted once per mode.
ALL_AXES: Tuple[str, ...] = ("topology", "faults", "schedules", "exec")

#: Sampling weight per backend: the modelled machine is ~10x cheaper
#: per scenario and the only backend with controlled (shrinkable)
#: schedules, so it gets the bulk of the budget.
BACKEND_WEIGHTS: Dict[str, float] = {
    "model": 0.8, "threads": 0.1, "procs": 0.1,
    # Opt-in only (see OPT_IN_BACKENDS); when explicitly selected it
    # shares the real-backend share of the budget.
    "dist": 0.1,
}

#: Livelock guard for campaign runs.  Deliberately tighter than the
#: harness default (400k): a fuzzing campaign meets pathological
#: protocol × fault combinations on purpose, and a livelocked scenario
#: must fail fast enough that shrinking (dozens of re-runs) stays
#: inside the budget.  Healthy campaign circuits execute a few
#: thousand events; 60k is an order of magnitude of headroom.  The
#: same bound is used for the step watchdog, so marker-frozen spins
#: (which do not advance the step counter) are cut equally fast.
CAMPAIGN_MAX_STEPS = 60_000

#: A larger circuit gets the same headroom over its own size: its step
#: cap is at least this many steps per event the sequential oracle
#: commits (gate-level IIR commits 30 901 events, and one optimistic
#: scenario of it at 15 % loss executes 223 495 before it completes).
CAMPAIGN_STEPS_PER_EVENT = 20

#: Wall-clock guard for real-backend scenarios (seconds).
CAMPAIGN_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Scenario(RunConfig):
    """One fully-specified fuzzing scenario: a run (hashable by value)
    plus the seed of its controlled schedule."""

    backend: str
    protocol: str
    circuit: str = "random"
    #: Modelled machine only: seed of the controlled random schedule;
    #: ``None`` runs the canonical (all-defaults) interleaving.
    schedule_seed: Optional[int] = None

    def key(self) -> Tuple:
        """Identity of the scenario for distinct-coverage counting."""
        return (self.backend, self.protocol, self.circuit,
                self.circuit_seed, self.circuit_params, self.processors,
                self.schedule_seed, self.fault_plan, self.exec_mode)

    def describe(self) -> str:
        parts = [f"{self.backend}/{self.protocol}",
                 f"{self.circuit}#{self.circuit_seed}",
                 f"p={self.processors}"]
        if self.exec_mode != "interp":
            parts.append(f"exec={self.exec_mode}")
        if self.circuit_params:
            parts.append("topo=" + ",".join(
                f"{k}={v}" for k, v in self.circuit_params
                if k != "delays"))
        if self.schedule_seed is not None:
            parts.append(f"sched={self.schedule_seed}")
        if self.fault_plan is not None:
            parts.append(f"faults[{self.fault_plan.describe()}]")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form for the corpus index (informational; the replay
        recipe proper is the Schedule artifact next to it)."""
        data: Dict[str, Any] = {
            "backend": self.backend, "protocol": self.protocol,
            "circuit": self.circuit, "circuit_seed": self.circuit_seed,
            "processors": self.processors,
        }
        if self.circuit_params:
            data["circuit_params"] = {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in self.circuit_params}
        if self.schedule_seed is not None:
            data["schedule_seed"] = self.schedule_seed
        if self.fault_plan is not None:
            data["fault_plan"] = self.fault_plan.to_dict()
        if self.exec_mode != "interp":
            data["exec_mode"] = self.exec_mode
        return data


def _freeze_params(params: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(
        (key, tuple(value) if isinstance(value, list) else value)
        for key, value in params.items()))


class ScenarioSpace:
    """Seeded scenario sampler: coverage cells first, then weighted.

    Deterministic: the same ``seed`` (and axis/backend configuration)
    yields the same scenario stream, so a campaign is as replayable as
    any single run.
    """

    def __init__(self, seed: int = 0,
                 backends: Optional[Sequence[str]] = None,
                 axes: Optional[Sequence[str]] = None,
                 circuit: str = "random",
                 processors: Sequence[int] = (2, 3),
                 until: Optional[int] = None) -> None:
        self.seed = seed
        #: Every scenario's simulation horizon (not sampled).
        self.until = until
        self.backends = tuple(backends) if backends else tuple(
            b for b in BACKEND_PROTOCOLS if b not in OPT_IN_BACKENDS)
        for backend in self.backends:
            if backend not in BACKEND_PROTOCOLS:
                raise ValueError(f"unknown backend {backend!r}; choose "
                                 f"from {sorted(BACKEND_PROTOCOLS)}")
        self.axes = frozenset(axes if axes is not None else ALL_AXES)
        unknown = self.axes - frozenset(ALL_AXES)
        if unknown:
            raise ValueError(f"unknown axes {sorted(unknown)}; choose "
                             f"from {list(ALL_AXES)}")
        self.circuit = circuit
        self.processors = tuple(processors)
        #: Execution modes in play: the exec axis doubles the coverage
        #: grid; without it every scenario interprets (the historical
        #: behaviour, bit-for-bit).
        self.exec_modes: Tuple[str, ...] = (
            ("interp", "compiled") if "exec" in self.axes
            else ("interp",))

    # ------------------------------------------------------------------
    def _sample_faults(self, rng: random.Random,
                       processors: int) -> Optional[FaultPlan]:
        """~40% of scenarios run over a misbehaving fabric."""
        if rng.random() >= 0.4:
            return None
        plan = FaultPlan(
            seed=rng.randrange(1 << 16),
            drop=rng.choice((0.0, 0.05, 0.15)),
            duplicate=rng.choice((0.0, 0.0, 0.05)),
            reorder=rng.choice((0.0, 0.1, 0.25)),
            jitter=rng.choice((0.0, 0.0, 2.0)),
            spike=rng.choice((0.0, 0.0, 0.02)))
        if not plan.faulty:
            # All-zero draw: keep the plan anyway as pure-jitter noise
            # would; a fabric-on-but-quiet run still exercises the
            # reliable layer's bookkeeping.
            plan = FaultPlan(seed=plan.seed, jitter=1.0)
        if rng.random() < 0.15:
            # Crash-recovery scenarios: one mid-run processor loss.
            plan = plan.with_crashes(
                (rng.randrange(5, 40), rng.randrange(processors)))
        return plan

    def _sample(self, rng: random.Random, backend: str,
                protocol: str, exec_mode: str = "interp") -> Scenario:
        params: Dict[str, Any] = {}
        if "topology" in self.axes:
            # Drawn for every circuit so a seed keeps its stream; a
            # circuit keeps the axes its builder takes.
            takes = circuit_params(self.circuit)
            params = {name: value for name, value
                      in sample_topology(rng).items() if name in takes}
        schedule_seed = None
        if backend == "model" and "schedules" in self.axes \
                and rng.random() < 0.7:
            schedule_seed = rng.randrange(1 << 20)
        if backend == "model" and protocol != "conservative":
            rng.random()  # the retired lazy draw: seeds keep their stream
        processors = rng.choice(self.processors)
        plan = None
        if "faults" in self.axes:
            plan = self._sample_faults(rng, processors)
        return Scenario(
            backend=backend, protocol=protocol, circuit=self.circuit,
            circuit_seed=rng.randrange(1 << 20),
            circuit_params=_freeze_params(params),
            processors=processors, schedule_seed=schedule_seed,
            fault_plan=plan, exec_mode=exec_mode, until=self.until,
            # The step watchdog of a controlled run takes the livelock
            # guard's bound; a ring keeps its own (seconds) and takes
            # the campaign's deadline.
            watchdog=CAMPAIGN_MAX_STEPS if backend == "model" else None,
            timeout_s=None if backend == "model" else CAMPAIGN_TIMEOUT_S)

    # ------------------------------------------------------------------
    def cells(self) -> Tuple[Tuple[str, str, str], ...]:
        """Every enabled ``(backend, protocol, exec_mode)`` coverage
        cell.  Without the exec axis the third element is always
        ``"interp"``, so pre-compiler campaigns keep their old grid."""
        return tuple((backend, protocol, exec_mode)
                     for backend in self.backends
                     for protocol in BACKEND_PROTOCOLS[backend]
                     for exec_mode in self.exec_modes)

    def generate(self) -> Iterator[Scenario]:
        """Infinite scenario stream: coverage cells first, then
        weighted random sampling."""
        rng = random.Random(f"campaign/{self.seed}")
        for backend, protocol, exec_mode in self.cells():
            yield self._sample(rng, backend, protocol, exec_mode)
        weights = [BACKEND_WEIGHTS[b] for b in self.backends]
        while True:
            backend = rng.choices(self.backends, weights=weights)[0]
            protocol = rng.choice(BACKEND_PROTOCOLS[backend])
            exec_mode = rng.choice(self.exec_modes)
            yield self._sample(rng, backend, protocol, exec_mode)
