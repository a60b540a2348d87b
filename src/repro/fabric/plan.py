"""Fault plans: seeded, per-link schedules of message-fabric misbehaviour.

A :class:`FaultPlan` describes *how the network lies*: per-link
probabilities of dropping a transmission, duplicating it, letting a copy
overtake younger traffic (reordering), adding uniform latency jitter,
and injecting occasional latency spikes.  It also carries an optional
*crash schedule* — points during a run at which a whole processor loses
its volatile state and must be recovered from its latest checkpoint.

Every random decision is drawn from a per-link ``random.Random`` seeded
from ``(plan.seed, src_proc, dst_proc)`` via the string-seeding path of
CPython's Mersenne Twister (which is deterministic across processes,
unlike ``hash()`` of a string).  The same plan therefore injects the
same faults into the same run every time — a fault run is exactly as
reproducible as a fault-free one.

Liveness guarantee: a plan never drops the same message more than
``max_drops_per_message`` times, so the reliable layer's retransmissions
always succeed within a bounded number of attempts, whatever the drop
probability.  (A plan with ``drop=1.0`` models a link that loses the
first ``max_drops_per_message`` transmissions of *every* message.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class FaultPlan:
    """Seeded per-link fault-injection schedule.

    All probabilities are per *transmission attempt* (a retransmission
    rolls the dice again).  ``crashes`` schedules whole-processor
    failures as ``(progress, processor)`` pairs; the progress unit is
    backend-specific — executed events for the modelled
    :class:`~repro.parallel.machine.ParallelMachine`, completed GVT
    commits on the worker ring (threads / procs / dist).
    """

    seed: int = 0
    #: Probability that a transmission attempt is lost.
    drop: float = 0.0
    #: Probability that a transmission is duplicated (two copies sent).
    duplicate: float = 0.0
    #: Probability that a copy takes an overtaking detour (non-FIFO).
    reorder: float = 0.0
    #: Extra latency (model-time units) of a detoured copy.
    reorder_magnitude: float = 4.0
    #: Uniform latency noise in ``[0, jitter)`` added to every copy.
    jitter: float = 0.0
    #: Probability of a latency spike on a copy.
    spike: float = 0.0
    #: Extra latency of a spiked copy.
    spike_magnitude: float = 25.0
    #: Hard cap on how often one message may be dropped (liveness).
    max_drops_per_message: int = 6
    #: Crash schedule: ``(progress_point, processor_index)`` pairs.
    crashes: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder", "spike"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        for name in ("jitter", "reorder_magnitude", "spike_magnitude",
                     "max_drops_per_message"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got "
                                 f"{getattr(self, name)}")

    # ------------------------------------------------------------------
    @property
    def faulty(self) -> bool:
        """True if the plan can perturb delivery at all."""
        return bool(self.drop or self.duplicate or self.reorder
                    or self.jitter or self.spike or self.crashes)

    @property
    def needs_recovery(self) -> bool:
        return bool(self.crashes)

    def rng_for(self, link: Tuple[int, int]) -> random.Random:
        """The deterministic RNG governing one directed processor link."""
        return random.Random(f"{self.seed}/{link[0]}>{link[1]}")

    def with_crashes(self, *crashes: Tuple[int, int]) -> "FaultPlan":
        return replace(self, crashes=self.crashes + tuple(crashes))

    # -- JSON round-trip (replay artifacts, fuzz corpus) ---------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form: only non-default fields, crashes as
        lists.  ``plan_from_dict(plan.to_dict()) == plan``."""
        default = FaultPlan()
        data: Dict[str, object] = {}
        for name in ("seed", "drop", "duplicate", "reorder",
                     "reorder_magnitude", "jitter", "spike",
                     "spike_magnitude", "max_drops_per_message"):
            value = getattr(self, name)
            if value != getattr(default, name):
                data[name] = value
        if self.crashes:
            data["crashes"] = [list(c) for c in self.crashes]
        return data

    def describe(self) -> str:
        parts: List[str] = [f"seed={self.seed}"]
        for name in ("drop", "duplicate", "reorder", "jitter", "spike"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value:g}")
        if self.crashes:
            parts.append("crashes=" + ",".join(
                f"{at}:{proc}" for at, proc in self.crashes))
        return " ".join(parts)


class LinkFaults:
    """Per-link fault state: the RNG plus per-message drop budgets."""

    __slots__ = ("plan", "link", "rng", "_drops")

    def __init__(self, plan: FaultPlan, link: Tuple[int, int]) -> None:
        self.plan = plan
        self.link = link
        self.rng = plan.rng_for(link)
        #: seq -> number of times this message has been dropped.
        self._drops: Dict[int, int] = {}

    def __getstate__(self):
        """Pickle shape (the endpoint rides every durable checkpoint
        upload): a plan that draws no dice never advances the RNG or
        fills a drop budget, so ``(plan, link)`` rebuilds it exactly —
        no 2.5 KB Mersenne state per link."""
        plan = self.plan
        if not (plan.drop or plan.duplicate or plan.reorder
                or plan.jitter or plan.spike):
            return (plan, self.link)
        return (plan, self.link, self.rng.getstate(), self._drops)

    def __setstate__(self, state) -> None:
        self.__init__(*state[:2])
        if len(state) > 2:
            self.rng.setstate(state[2])
            self._drops = state[3]

    def should_drop(self, seq: int) -> bool:
        plan = self.plan
        if not plan.drop:
            return False
        if self._drops.get(seq, 0) >= plan.max_drops_per_message:
            return False  # liveness cap: this message may not be lost again
        if self.rng.random() < plan.drop:
            self._drops[seq] = self._drops.get(seq, 0) + 1
            return True
        return False

    def copies(self) -> int:
        """How many copies this (non-dropped) transmission produces."""
        plan = self.plan
        if plan.duplicate and self.rng.random() < plan.duplicate:
            return 2
        return 1

    def extra_latency(self) -> Tuple[float, bool]:
        """(additional latency, was-reordered) for one copy."""
        plan = self.plan
        extra = 0.0
        reordered = False
        if plan.jitter:
            extra += self.rng.random() * plan.jitter
        if plan.reorder and self.rng.random() < plan.reorder:
            extra += self.rng.random() * plan.reorder_magnitude
            reordered = True
        if plan.spike and self.rng.random() < plan.spike:
            extra += plan.spike_magnitude
        return extra, reordered

    def forget(self, seq: int) -> None:
        """Drop the bookkeeping for a delivered message."""
        self._drops.pop(seq, None)


def plan_from_dict(data: Dict[str, object]) -> FaultPlan:
    """Rebuild a :class:`FaultPlan` from :meth:`FaultPlan.to_dict`."""
    kwargs = dict(data)
    crashes = kwargs.pop("crashes", None)
    plan = FaultPlan(**kwargs)  # type: ignore[arg-type]
    if crashes:
        plan = plan.with_crashes(*(tuple(c) for c in crashes))
    return plan


_ALIASES = {
    "drop": "drop", "dup": "duplicate", "duplicate": "duplicate",
    "reorder": "reorder", "reorder_magnitude": "reorder_magnitude",
    "jitter": "jitter", "spike": "spike",
    "spike_magnitude": "spike_magnitude", "seed": "seed",
    "max_drops": "max_drops_per_message",
    "max_drops_per_message": "max_drops_per_message",
}


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse a CLI fault-plan spec like ``"drop=0.05,dup=0.02,seed=7"``.

    Keys: ``drop``, ``dup``, ``reorder``, ``jitter``, ``spike``,
    ``spike_magnitude``, ``reorder_magnitude``, ``seed``, ``max_drops``.
    Crash points are appended with ``crash=STEP:PROC`` (repeatable).
    """
    kwargs: Dict[str, object] = {}
    crashes: List[Tuple[int, int]] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"fault-plan item {item!r} is not key=value")
        key, value = item.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if key == "crash":
            at, _, proc = value.partition(":")
            crashes.append((int(at), int(proc)))
            continue
        if key not in _ALIASES:
            raise ValueError(
                f"unknown fault-plan key {key!r}; known: "
                f"{sorted(set(_ALIASES))} and 'crash'")
        field_name = _ALIASES[key]
        if field_name in ("seed", "max_drops_per_message"):
            kwargs[field_name] = int(value)
        else:
            kwargs[field_name] = float(value)
    plan = FaultPlan(**kwargs)  # type: ignore[arg-type]
    if crashes:
        plan = plan.with_crashes(*crashes)
    return plan
