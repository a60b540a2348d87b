"""What a run is: one frozen value, validated once before any work.

The paper's run is a design, a processor count and one of four
synchronization configurations.  :class:`RunConfig` is that and the
rest of what a run of this repository takes — backend, partition,
process-execution mode, horizon, fault plan (crashes included),
watchdog, deadline, start method, hosts, and a registered circuit with
its seed and parameters.  Every place that describes a run holds one:
the command line builds one per run, :class:`~repro.harness.Checker`
and :func:`~repro.harness.check_backend` store one, a
:class:`~repro.campaign.Scenario` is one plus a schedule seed, a
:class:`~repro.service.RunSpec` one plus a label, and a
:class:`~repro.harness.Schedule` artifact holds one.
:meth:`RunConfig.validate` raises one :class:`ConfigError` for anything
no backend can run, before any model is built or any worker starts.

:class:`RingSpec` is the worker ring's part of a run, what a spawned or
remote worker is sent beside the pristine model; it states which
backends are rings and that they run the static protocols only.

This module imports nothing heavier than the standard library, so the
command line reads its tables without loading the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union


class ConfigError(ValueError):
    """A run description no backend can run."""


@dataclass(frozen=True)
class RingSpec:
    """What a ring run is, besides the model.

    A forked or thread worker inherits it with the machine; a spawned
    or remote worker is sent it beside the pristine pickled model
    (:func:`~repro.parallel.backend.pristine_payload`) and nothing else.
    Validated here, so every way of making one — a machine constructor,
    ``run()`` setting the deadline, :meth:`RunConfig.validate` — crosses
    the same checks.
    """

    #: The worker-ring backends.
    BACKENDS = ("threads", "procs", "dist")
    #: What the ring runs: the static protocols, no adaptive one.
    PROTOCOLS = ("optimistic", "conservative", "mixed")

    processors: int
    protocol: str = PROTOCOLS[0]
    partition: Union[str, Any, Callable] = "round_robin"
    until: Optional[int] = None
    fault_plan: Optional[Any] = None
    #: Durable checkpoints; ``None`` = when the plan schedules a crash.
    recovery: Optional[bool] = None
    watchdog_s: Optional[float] = None
    #: The run's deadline; ``run(timeout_s)`` sets it.
    timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.protocol not in self.PROTOCOLS:
            raise ConfigError(
                f"the worker ring ({' / '.join(self.BACKENDS)}) supports "
                f"static protocols only ({', '.join(self.PROTOCOLS)}), "
                f"not {self.protocol!r}; use the modelled machine for "
                f"the dynamic configuration")
        if self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive")
        if self.crashes and not self.recovers:
            raise ConfigError("a crash schedule requires recovery=True")
        _refuse_absent_victims(self.crashes, self.processors)

    @classmethod
    def of(cls, processors: int, **ring) -> "RingSpec":
        """A ring machine constructor's spec.  The deadline is
        ``run()``'s, so ``timeout_s`` is not one of ``ring``."""
        return cls(processors, timeout_s=cls.timeout_s, **ring)

    @property
    def crashes(self) -> List[Tuple[int, int]]:
        """The crash schedule: (completed GVT commits, worker) pairs."""
        plan = self.fault_plan
        return sorted(plan.crashes) if plan is not None else []

    @property
    def recovers(self) -> bool:
        if self.recovery is None:
            return bool(self.crashes)
        return bool(self.recovery)


def _refuse_absent_victims(crashes, processors: int) -> None:
    for _at, victim in crashes:
        if not 0 <= victim < processors:
            raise ConfigError(f"no processor {victim}")


#: The protocols of the modelled machine: the ring's, then the adaptive.
PROTOCOLS = RingSpec.PROTOCOLS + ("dynamic",)
#: Backends of :func:`~repro.vhdl.simulate_parallel`.
PARALLEL_BACKENDS = ("model",) + RingSpec.BACKENDS
#: Which protocols each parallel backend runs.
BACKEND_PROTOCOLS: Dict[str, Tuple[str, ...]] = {
    "model": PROTOCOLS,
    **dict.fromkeys(RingSpec.BACKENDS, RingSpec.PROTOCOLS)}
#: Process execution modes: tree-walking interpretation (the reference
#: semantics) or the closure programs of :mod:`repro.vhdl.compile`
#: (bit-identical results, lower per-event cost).
EXEC_MODES = ("interp", "compiled")


def _at_least(name: str, value, least) -> None:
    if value is not None and value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value:g}")


@dataclass(frozen=True)
class RunConfig:
    """One run: what it runs on, how it synchronizes, what it runs.

    ``protocol`` left ``None`` is the backend's default: ``dynamic`` on
    the modelled machine, the ring's own elsewhere.  ``watchdog`` is in
    machine steps without GVT progress on the model and in seconds on a
    ring (``None``: on, at a generous bound; ``0``: off).  ``backend``
    ``"seq"`` is the sequential reference engine.  ``circuit`` names a
    registered circuit (:data:`repro.harness.check.CIRCUITS`); it is
    ``None`` when the design comes from elsewhere.
    """

    backend: str = "model"
    protocol: Optional[str] = None
    processors: int = 2
    partition: Union[str, Any, Callable] = "round_robin"
    exec_mode: str = "interp"
    until: Optional[int] = None
    fault_plan: Optional[Any] = None
    watchdog: Optional[float] = None
    #: A ring run's wall deadline in seconds; ``None`` is the ring's
    #: own.  The modelled machine and the sequential engine have none.
    timeout_s: Optional[float] = None
    start_method: Optional[str] = None
    hosts: Tuple[str, ...] = ()
    circuit: Optional[str] = None
    circuit_seed: int = 0
    #: Builder overrides as ``(name, value)`` pairs in the order given
    #: (a dict is accepted; a list value becomes a tuple).
    circuit_params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.protocol is None:
            object.__setattr__(self, "protocol", "dynamic"
                               if self.backend == "model"
                               else RingSpec.protocol)
        if isinstance(self.circuit_params, dict):
            object.__setattr__(self, "circuit_params", tuple(
                (name, tuple(value) if isinstance(value, list) else value)
                for name, value in self.circuit_params.items()))
        if not isinstance(self.hosts, tuple):
            object.__setattr__(self, "hosts", tuple(self.hosts or ()))

    def params(self) -> Dict[str, Any]:
        """The circuit parameters as builder keywords."""
        return dict(self.circuit_params)

    def machine_kwargs(self) -> Dict[str, Any]:
        """This run as :func:`~repro.vhdl.simulate_parallel`'s machine
        keywords, beside its processors, horizon, protocol, backend and
        exec mode: the one place a backend's own spelling is chosen."""
        kwargs: Dict[str, Any] = {"partition": self.partition,
                                  "fault_plan": self.fault_plan}
        if self.backend == "model":
            if self.watchdog is not None:
                kwargs["watchdog"] = int(self.watchdog)
            return kwargs
        if self.timeout_s is not None:
            kwargs["timeout_s"] = self.timeout_s
        if self.watchdog is not None:
            kwargs["watchdog_s"] = self.watchdog
        if self.start_method is not None:
            kwargs["start_method"] = self.start_method
        if self.hosts:
            kwargs["hosts"] = list(self.hosts)
        return kwargs

    def validate(self) -> "RunConfig":
        """Raise :class:`ConfigError` unless a backend can run this;
        return it otherwise."""
        if self.backend != "seq" and self.backend not in PARALLEL_BACKENDS:
            raise ConfigError(
                f"unknown backend {self.backend!r}; choose from "
                f"{', '.join(('seq',) + PARALLEL_BACKENDS)}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}; "
                              f"choose from {', '.join(PROTOCOLS)}")
        if self.exec_mode not in EXEC_MODES:
            raise ConfigError(f"unknown exec mode {self.exec_mode!r}; "
                              f"choose from {', '.join(EXEC_MODES)}")
        _at_least("-p/--processors", self.processors, 1)
        _at_least("--until", self.until, 0)
        _at_least("--watchdog", self.watchdog, 0)
        if self.timeout_s is not None:
            if self.timeout_s <= 0:
                raise ConfigError(f"--timeout must be positive, got "
                                  f"{self.timeout_s:g}")
            if self.backend not in RingSpec.BACKENDS:
                raise ConfigError(
                    f"--timeout applies to the "
                    f"{' / '.join(RingSpec.BACKENDS)} backends only")
        if self.start_method is not None and self.backend != "procs":
            raise ConfigError("--start-method applies to the procs "
                              "backend only")
        if self.hosts and self.backend != "dist":
            raise ConfigError("--hosts applies to the dist backend only")
        if len(self.hosts) > self.processors:
            raise ConfigError(f"{len(self.hosts)} hosts for "
                              f"{self.processors} workers")
        if self.backend in RingSpec.BACKENDS:
            ring = self.machine_kwargs()
            ring.pop("start_method", None)
            ring.pop("hosts", None)
            RingSpec(self.processors, self.protocol, until=self.until, **ring)
        elif self.fault_plan is not None:
            _refuse_absent_victims(self.fault_plan.crashes, self.processors)
        if self.circuit is not None:
            from .harness.check import refuse_params

            refuse_params(self.circuit, self.params())
        return self
