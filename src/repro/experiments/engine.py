"""Job-based parallel execution layer for the experiment harness.

The engine takes the :class:`~repro.env.jobs.EnvJob` specs an
experiment declares (its :class:`ExperimentPlan`) — the one job kind,
whatever the domain — deduplicates them against everything already
completed this process (so e.g. the per-mix LRU baseline and the
Fig. 6-9 shared suite run exactly once across *all* figures), consults
the optional on-disk
:class:`~repro.experiments.result_cache.ResultCache`, and schedules the
remaining runs across a ``multiprocessing`` worker pool.

Determinism guarantee: results are bit-identical for ``--jobs 1`` and
``--jobs 8``.  Each job carries its own RNG seeds inside the spec,
workers never share mutable policy state, and assembly consumes results
keyed by job (never by completion order).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..env.jobs import EnvJob
from ..obs import ObsConfig
from .progress import NullProgress, ProgressReporter
from .report import ExperimentResult
from .result_cache import ResultCache

AssembleFn = Callable[[Mapping[EnvJob, Any]], ExperimentResult]


@dataclass(frozen=True)
class ExperimentPlan:
    """A figure, declaratively: its jobs plus a pure assembly step.

    ``assemble`` must be pure — it may only read the completed results
    (and values closed over at plan-build time), never run simulations.
    """

    experiment_id: str
    jobs: Tuple[EnvJob, ...]
    assemble: AssembleFn


@dataclass
class EngineStats:
    """Where results came from, accumulated over the engine's lifetime."""

    executed: int = 0
    disk_hits: int = 0
    memo_hits: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.disk_hits + self.memo_hits


def _pool_run(
    job: EnvJob, obs: Optional[ObsConfig] = None
) -> Tuple[EnvJob, Any, float]:
    start = time.perf_counter()
    result = job.execute(obs=obs)
    return job, result, time.perf_counter() - start


def _fork_context():
    # fork shares the already-imported interpreter (cheap startup);
    # fall back to the platform default where fork is unavailable.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


class Engine:
    """Schedules jobs across workers, with dedup + caching."""

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        progress: Optional[ProgressReporter] = None,
        obs: Optional[ObsConfig] = None,
    ) -> None:
        self.workers = max(1, workers if workers is not None else os.cpu_count() or 1)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.progress = progress or NullProgress()
        self.stats = EngineStats()
        self._memo: Dict[EnvJob, Any] = {}
        # Observability: the ObsConfig (picklable) is forwarded to
        # worker processes, which export per-job artifacts themselves;
        # the engine's own session records scheduling — wall-clock job
        # spans, memo/disk-cache hits, batch summaries.  Disk-cache
        # hits skip execution entirely, so they leave no per-job
        # artifacts (only the engine's "disk" marker).
        self.obs_config = obs
        self._obs = obs.session("engine") if obs is not None else None
        self._obs_t0 = time.perf_counter()
        self._obs_done = 0
        if self._obs is not None:
            self._obs.tracer.name_thread(0, "engine")
            for lane in range(1, self.workers + 1):
                self._obs.tracer.name_thread(lane, f"worker{lane - 1}")

    # --- job execution ----------------------------------------------------------

    def run_jobs(
        self, jobs: Sequence[EnvJob], experiment_id: str = "jobs"
    ) -> Dict[EnvJob, Any]:
        """Complete every job (order-independent), returning job -> result."""
        unique: List[EnvJob] = list(dict.fromkeys(jobs))
        self.progress.begin(experiment_id, len(unique))
        start = time.perf_counter()
        results: Dict[EnvJob, Any] = {}
        pending: List[EnvJob] = []
        executed = disk_hits = memo_hits = 0

        for job in unique:
            memoized = self._memo.get(job)
            if memoized is not None:
                results[job] = memoized
                memo_hits += 1
                self.progress.job_done(job, "memo", 0.0)
                if self._obs is not None:
                    self._obs_job(job, "memo", 0.0)
                continue
            if self.cache is not None:
                cached = self.cache.get(job)
                if cached is not None:
                    self._memo[job] = cached
                    results[job] = cached
                    disk_hits += 1
                    self.progress.job_done(job, "disk", 0.0)
                    if self._obs is not None:
                        self._obs_job(job, "disk", 0.0)
                    continue
            pending.append(job)

        if pending:
            executed = len(pending)
            for job, result, seconds in self._execute(pending):
                self._memo[job] = result
                results[job] = result
                if self.cache is not None:
                    self.cache.put(job, result)
                self.progress.job_done(job, "run", seconds)
                if self._obs is not None:
                    self._obs_job(job, "run", seconds)

        elapsed = time.perf_counter() - start
        self.stats.executed += executed
        self.stats.disk_hits += disk_hits
        self.stats.memo_hits += memo_hits
        self.progress.batch_summary(
            experiment_id, executed, disk_hits, memo_hits, elapsed
        )
        if self._obs is not None:
            self._obs.timeline.record(
                "engine_batch",
                experiment=experiment_id,
                jobs=len(unique),
                executed=executed,
                disk_hits=disk_hits,
                memo_hits=memo_hits,
                seconds=elapsed,
            )
        return results

    def _execute(self, pending: Sequence[EnvJob]):
        if self.workers <= 1 or len(pending) <= 1:
            for job in pending:
                yield _pool_run(job, self.obs_config)
            return
        ctx = _fork_context()
        run = functools.partial(_pool_run, obs=self.obs_config)
        with ctx.Pool(processes=min(self.workers, len(pending))) as pool:
            yield from pool.imap_unordered(run, pending)

    # --- observability (engine-side scheduling record) ----------------------------

    def _obs_job(self, job, source: str, seconds: float) -> None:
        """One completed job on the engine's wall-clock trace."""
        obs = self._obs
        now_us = (time.perf_counter() - self._obs_t0) * 1e6
        obs.timeline.record(
            "engine_job", label=job.label, source=source, seconds=seconds
        )
        if source == "run":
            # Completion-order lanes: the fork pool doesn't report which
            # worker ran a job, so lanes show concurrency shape, not
            # worker identity.
            lane = self._obs_done % self.workers + 1
            self._obs_done += 1
            obs.tracer.complete(
                job.label, now_us - seconds * 1e6, seconds * 1e6, tid=lane
            )
        else:
            obs.tracer.instant(f"{source}_hit", now_us, args={"label": job.label})
        obs.registry.counter(f"engine.jobs_{source}").inc()

    def export_obs(self) -> Optional[dict]:
        """Write the engine session's artifacts (None with obs off)."""
        if self._obs is None:
            return None
        return self._obs.export()

    # --- plans ------------------------------------------------------------------

    def run_plan(self, plan: ExperimentPlan) -> ExperimentResult:
        """Complete a plan's jobs, then assemble its paper artifact."""
        results = self.run_jobs(plan.jobs, experiment_id=plan.experiment_id)
        return plan.assemble(results)
