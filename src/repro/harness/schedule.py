"""Controlled schedules: deterministic interleaving exploration.

The modelled machine is deterministic *by construction*: every choice
it makes — which tied processor acts, which same-time LP runs, which
same-``(pt, lt)`` queued event is popped — falls back to a canonical
(sort-key) order.  The paper's claim (Sec. 3.3) is that none of those
tie-breaks matter: with the ``(pt, lt)`` Lamport extension, events left
simultaneous are independent and **any** processing order commits the
same results.

A :class:`Scheduler` turns every such tie into an explicit, recorded
*decision*: the engine hands it the (canonically sorted) candidate set
and the scheduler returns an index.  Three choice-point kinds exist:

* ``proc``  — which of several processors tied at the same model time
  acts next (:meth:`ParallelMachine._next_processor`);
* ``lp``    — which of several LP runtimes whose queue heads carry the
  same ``(pt, lt)`` executes next (:meth:`Processor._execute_one`);
* ``event`` — which of several same-``(pt, lt)`` events queued at one
  LP is popped (:meth:`Processor._controlled_pop`).

Because the machine is deterministic *given* the decision sequence, a
recorded sequence is a perfect replay artifact: feeding the decisions
back (:class:`ReplayScheduler`) reproduces the exact run — committed
waves, statistics, trace and all.  Exploration composes two
strategies:

* **seeded random** (:class:`RandomScheduler`) — every decision drawn
  from a seeded RNG;
* **targeted swaps** (DPOR-lite) — take the baseline (all-default) run,
  and for each decision point with more than one candidate emit a
  schedule that diverges *there* and follows defaults afterwards.
  This systematically covers every first divergence from the canonical
  order, which is where ordering bugs hide.

``tie_key`` defines which timestamps count as "simultaneous"
(default: the full ``(pt, lt)`` pair).  Tests monkeypatch it to
``pt``-only to *inject* an ordering bug — permuting across logical
phases violates the distributed VHDL cycle — and check that the
harness catches it with a replayable artifact.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..config import RunConfig
from ..fabric.plan import plan_from_dict


class Scheduler:
    """Base controlled scheduler: records every decision it makes.

    ``log`` holds ``(ncand, chosen)`` pairs in decision order; the pair
    sequence is the run's *interleaving signature* — two runs with equal
    signatures executed the same interleaving.
    """

    def tie_key(self, time) -> Any:
        """Which part of a virtual time defines a "simultaneous" tie.

        The protocol's claim holds for the full ``(pt, lt)`` pair;
        collapsing it (e.g. to ``pt`` only) deliberately groups
        non-commuting events and is used by tests to inject an
        ordering bug.  (A plain method, so tests can monkeypatch it on
        the class without staticmethod-descriptor gymnastics.)
        """
        return (time[0], time[1])

    def __init__(self) -> None:
        self.log: List[Tuple[int, int]] = []

    # -- decision core -------------------------------------------------
    def choose(self, kind: str, ncand: int) -> int:
        """Pick one of ``ncand`` canonical candidates; record it."""
        chosen = self._pick(kind, ncand)
        if not 0 <= chosen < ncand:  # pragma: no cover - scheduler bug
            chosen = 0
        self.log.append((ncand, chosen))
        return chosen

    def _pick(self, kind: str, ncand: int) -> int:
        return 0

    # -- views ---------------------------------------------------------
    @property
    def signature(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(self.log)

    @property
    def decisions(self) -> List[int]:
        return [chosen for _n, chosen in self.log]

    @property
    def ncands(self) -> List[int]:
        return [n for n, _chosen in self.log]


class DefaultScheduler(Scheduler):
    """Always the canonical first candidate (the uncontrolled order)."""


class RandomScheduler(Scheduler):
    """Seeded-random exploration: every tie resolved by one RNG draw."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed
        self._rng = random.Random(seed)

    def _pick(self, kind: str, ncand: int) -> int:
        return self._rng.randrange(ncand)


class ReplayScheduler(Scheduler):
    """Feed back a recorded decision list; defaults after exhaustion.

    A replayed run normally encounters exactly the recorded choice
    points.  If it diverges (a candidate count differs from what the
    recording implies), the scheduler clamps the decision and counts
    the divergence — a nonzero ``divergences`` on a supposedly faithful
    replay is itself a determinism bug worth surfacing.
    """

    def __init__(self, decisions: List[int],
                 ncands: Optional[List[int]] = None) -> None:
        super().__init__()
        self._decisions = list(decisions)
        self._ncands = list(ncands) if ncands else None
        self._cursor = 0
        self.divergences = 0

    def _pick(self, kind: str, ncand: int) -> int:
        i = self._cursor
        self._cursor += 1
        if i >= len(self._decisions):
            return 0
        want = self._decisions[i]
        if self._ncands is not None and i < len(self._ncands) \
                and self._ncands[i] != ncand:
            self.divergences += 1
        if want >= ncand:
            self.divergences += 1
            return ncand - 1
        return want


def swap_schedule(point: int, alternative: int) -> List[int]:
    """The DPOR-lite targeted-swap decision list.

    Defaults (canonical order) everywhere except decision ``point``,
    where candidate ``alternative`` is taken instead.  Trailing
    defaults are implicit (:class:`ReplayScheduler` pads with 0).
    """
    return [0] * point + [alternative]


# ---------------------------------------------------------------------------
# Schedule artifacts
# ---------------------------------------------------------------------------
ARTIFACT_VERSION = 1


@dataclass
class Schedule:
    """A replayable schedule artifact.

    Everything needed to reproduce one explored interleaving: the run
    it was recorded on (a modelled-machine :class:`~repro.config.
    RunConfig` naming a registered circuit), the decision sequence, and
    the committed-wave digest the run produced (so a replay can verify
    it reproduced the same results bit-for-bit).  The JSON carries the
    run's circuit, seed, processors and protocol, and, only when they
    differ from the defaults (so older artifacts keep loading with the
    format version unchanged), its circuit parameters, fault plan and
    exec mode.
    """

    config: RunConfig
    decisions: List[int] = field(default_factory=list)
    ncands: List[int] = field(default_factory=list)
    label: str = "recorded"
    wave_digest: Optional[str] = None
    violations: List[str] = field(default_factory=list)

    # -- (de)serialization --------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        config = self.config
        data = {
            "version": ARTIFACT_VERSION,
            "circuit": config.circuit,
            "circuit_seed": config.circuit_seed,
            "processors": config.processors,
            "protocol": config.protocol,
            "decisions": self.decisions,
            "ncands": self.ncands,
            "label": self.label,
            "wave_digest": self.wave_digest,
            "violations": self.violations,
        }
        if config.circuit_params:
            data["circuit_params"] = {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in config.circuit_params}
        plan = config.fault_plan.to_dict() if config.fault_plan else None
        if plan:
            data["fault_plan"] = plan
        if config.exec_mode != "interp":
            data["exec_mode"] = config.exec_mode
        return data

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "Schedule":
        with open(path) as handle:
            data = json.load(handle)
        version = data.get("version")
        if version != ARTIFACT_VERSION:
            raise ValueError(
                f"unsupported schedule artifact version {version!r} "
                f"(expected {ARTIFACT_VERSION})")
        # Artifacts written before lazy cancellation was retired carry
        # its flag: false loads, true cannot replay any more.
        if data.get("lazy_cancellation", False):
            raise ValueError(
                "recorded with lazy cancellation, which was retired "
                "(every rollback cancels eagerly); record it again")
        plan = data.get("fault_plan")
        config = RunConfig(
            circuit=data["circuit"],
            circuit_seed=int(data.get("circuit_seed", 0)),
            processors=int(data["processors"]),
            protocol=data["protocol"],
            circuit_params=data.get("circuit_params", {}),
            fault_plan=plan_from_dict(plan) if plan else None,
            exec_mode=data.get("exec_mode", "interp"))
        return cls(
            config,
            decisions=[int(d) for d in data.get("decisions", [])],
            ncands=[int(n) for n in data.get("ncands", [])],
            label=data.get("label", "recorded"),
            wave_digest=data.get("wave_digest"),
            violations=list(data.get("violations", [])),
        )

    def replayer(self) -> ReplayScheduler:
        return ReplayScheduler(self.decisions, self.ncands)
