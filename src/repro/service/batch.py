"""The batched run service: elaborate once, simulate N times.

ROADMAP item 2's production shape: many parameterized simulation runs
of a few distinct designs.  The service is a small job queue that

* resolves each job's design to a :class:`~repro.vhdl.artifact.
  DesignArtifact` **once** — VHDL jobs go through the content-addressed
  elaboration cache (:mod:`repro.vhdl.cache`), builder jobs build and
  snapshot once, artifact jobs are already done;
* fans the runs onto a thread worker pool, each run instantiating a
  fresh runtime from the shared artifact (``instantiate()`` is the
  isolation boundary — runs share nothing mutable, so any backend and
  any exec mode can execute concurrently);
* aggregates per-run statistics into fleet totals with the existing
  :meth:`~repro.core.stats.RunStats.merge` algebra.

The fan-out is a thread pool, so it overlaps only runs that wait: a
procs or dist run waits on its worker processes or daemons.  Sequential,
model and threads runs compute in this process and hold the GIL, so
they do not overlap (eight model runs of fsm(12, 8) took about as long
on four threads as on one).  The fuzzing campaign, whose scenarios
share nothing, fans out onto worker processes instead
(:mod:`repro.campaign.runner`).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..config import RunConfig
from ..core.stats import RunStats
from ..vhdl.artifact import DesignArtifact
from ..vhdl.cache import ElabCache, cached_elaborate
from ..vhdl.kernel import execute


@dataclass(frozen=True)
class RunSpec(RunConfig):
    """One parameterized run of a job's design: a run plus a label.
    Unlike a bare :class:`~repro.config.RunConfig` it defaults to one
    sequential run (``protocol`` and ``processors`` apply to the
    parallel backends)."""

    backend: str = "seq"
    protocol: str = "optimistic"
    processors: int = 1
    label: str = ""


@dataclass(frozen=True)
class VhdlJob:
    """A design given as VHDL source (elaborated through the cache)."""

    source: str
    top: str
    generics: Optional[Dict[str, Any]] = None
    traced: Union[bool, Tuple[str, ...]] = True
    name: Optional[str] = None


#: A job's design: an artifact, VHDL source, or a zero-argument
#: builder returning a fresh (un-simulated) Design.
DesignSource = Union[DesignArtifact, VhdlJob, Callable[[], Any]]


@dataclass
class BatchJob:
    """One design plus the runs to fan out over it."""

    design: DesignSource
    runs: List[RunSpec]


@dataclass
class RunOutcome:
    """What one fan-out run produced."""

    job_index: int
    run_index: int
    spec: RunSpec
    content_hash: str
    result: Optional[Any] = None  # SimulationResult on success
    error: Optional[str] = None
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchResult:
    """Everything a fleet run produced, plus the amortization story."""

    outcomes: List[RunOutcome]
    #: Fleet totals: every successful run's stats merged.
    fleet: RunStats
    #: Distinct designs that had to be elaborated cold.
    elaborations: int
    #: Designs resolved from the elaboration cache.
    cache_hits: int
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failures(self) -> List[RunOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def summary(self) -> Dict[str, Any]:
        return {
            "runs": len(self.outcomes),
            "failed": len(self.failures),
            "elaborations": self.elaborations,
            "cache_hits": self.cache_hits,
            "events_committed": self.fleet.events_committed,
            "events_executed": self.fleet.events_executed,
            "rollbacks": self.fleet.rollbacks,
            "wall_time_s": round(self.wall_time_s, 3),
        }


class RunService:
    """Elaborate each distinct design once; fan N runs onto a pool."""

    def __init__(self, cache: Optional[ElabCache] = None,
                 max_workers: int = 4) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.cache = cache
        self.max_workers = max_workers

    # ------------------------------------------------------------------
    def resolve(self, source: DesignSource) -> Tuple[DesignArtifact, str]:
        """Resolve a job's design to an artifact.

        Returns ``(artifact, how)`` with ``how`` one of ``"artifact"``
        (already snapshotted), ``"cache"`` (elaboration cache hit) or
        ``"cold"`` (had to elaborate/build).
        """
        if isinstance(source, DesignArtifact):
            return source, "artifact"
        if isinstance(source, VhdlJob):
            if self.cache is not None:
                artifact, hit = cached_elaborate(
                    source.source, source.top, generics=source.generics,
                    traced=source.traced, name=source.name,
                    cache=self.cache)
                return artifact, "cache" if hit else "cold"
            from ..vhdl.artifact import build_artifact
            return build_artifact(
                source.source, source.top, generics=source.generics,
                traced=source.traced, name=source.name), "cold"
        if callable(source):
            built = source()
            design = getattr(built, "design", built)
            return design.artifact(), "cold"
        raise TypeError(f"cannot resolve a design from {type(source)!r}")

    # ------------------------------------------------------------------
    def run_batch(self, jobs: List[BatchJob]) -> BatchResult:
        """Resolve every job's artifact, then fan out all runs."""
        start = time.monotonic()
        elaborations = 0
        cache_hits = 0
        resolved: List[DesignArtifact] = []
        for job in jobs:
            artifact, how = self.resolve(job.design)
            if how == "cold":
                elaborations += 1
            elif how == "cache":
                cache_hits += 1
            resolved.append(artifact)

        work: List[Tuple[int, int, DesignArtifact, RunSpec]] = []
        for job_index, job in enumerate(jobs):
            for run_index, spec in enumerate(job.runs):
                work.append((job_index, run_index,
                             resolved[job_index], spec))

        def one(item) -> RunOutcome:
            job_index, run_index, artifact, spec = item
            t0 = time.monotonic()
            outcome = RunOutcome(job_index=job_index,
                                 run_index=run_index, spec=spec,
                                 content_hash=artifact.content_hash)
            try:
                outcome.result = execute(artifact, spec)
            except Exception as failure:  # noqa: BLE001 - per-run report
                outcome.error = f"{type(failure).__name__}: {failure}"
            outcome.duration_s = time.monotonic() - t0
            return outcome

        if self.max_workers == 1 or len(work) <= 1:
            outcomes = [one(item) for item in work]
        else:
            with ThreadPoolExecutor(
                    max_workers=min(self.max_workers,
                                    len(work))) as pool:
                outcomes = list(pool.map(one, work))

        fleet = RunStats()
        for outcome in outcomes:
            if outcome.result is not None:
                fleet.merge(outcome.result.stats)
        return BatchResult(outcomes=outcomes, fleet=fleet,
                           elaborations=elaborations,
                           cache_hits=cache_hits,
                           wall_time_s=time.monotonic() - start)


def run_fleet(artifact: DesignArtifact, specs: List[RunSpec],
              max_workers: int = 4) -> BatchResult:
    """Convenience: one shared artifact, many runs."""
    service = RunService(max_workers=max_workers)
    return service.run_batch([BatchJob(design=artifact, runs=specs)])
