"""The ``serve_ops`` experiment: the live-operations loop, exercised.

One registered experiment comparing four ops-managed CHROME services
on the drifting ``phases`` workload (the scenario live operations
exist for — popularity moves, deploys go bad):

* ``baseline``   — inert ops config: pinned-identical to a plain serve
  run (the zero-impact control);
* ``shadow-lru`` — an LRU challenger shadowing the champion's traffic:
  the per-window deltas quantify how much CHROME's learned admission
  is worth on this stream, at zero risk to served results;
* ``bad-deploy`` — a mid-run Q-table sabotage (bypass-everything) with
  **no** guardrail: what an unwatched fleet does after a bad model
  push;
* ``guarded``    — the same sabotage with the guardrail armed: trips
  on the byte-hit EWMA, rolls back to the last-known-good snapshot,
  recovers.

The note at the bottom prints the comparison the ops bench gate
formalizes: guarded must beat unguarded on byte hit *and* p99 under
the identical injected degradation.
"""

from __future__ import annotations

from typing import List, Mapping

from ..experiments.engine import ExperimentPlan
from ..experiments.registry import register_experiment
from ..experiments.report import ExperimentResult
from ..experiments.runner import ExperimentScale

# NOTE: serve run-size helpers are imported lazily inside the builders —
# this module loads mid-import of the experiments package's eager
# registration, before ``repro.serve`` has finished importing.

#: evaluation windows per run (window size derives from the run length)
NUM_WINDOWS = 16

#: the bad deploy lands at the end of this window (0-based)
DEGRADE_WINDOW = 5

#: guardrail thresholds for the phases workload (tuned so healthy runs
#: never trip and the frozen-cache sabotage always does)
MIN_BYTE_HIT_EWMA = 0.05
TRIP_AFTER = 2
WARMUP_WINDOWS = 2
SNAPSHOT_EVERY = 2


def ops_window(scale: ExperimentScale) -> int:
    """Window size: the measured run split into ``NUM_WINDOWS`` epochs."""
    total = scale.accesses_per_core + scale.warmup_per_core
    return max(50, total // NUM_WINDOWS)


def guard_params(scale: ExperimentScale, degrade: bool):
    from .config import OpsConfig

    return OpsConfig(
        window=ops_window(scale),
        min_byte_hit_ewma=MIN_BYTE_HIT_EWMA,
        trip_after=TRIP_AFTER,
        warmup_windows=WARMUP_WINDOWS,
        snapshot_every=SNAPSHOT_EVERY,
        degrade_at_window=DEGRADE_WINDOW if degrade else -1,
    ).params()


def ops_job(
    scale: ExperimentScale,
    *,
    ops_params=(),
    seed: int = 0,
):
    from ..env.jobs import env_job
    from ..serve.experiments import NUM_SEGMENTS, serve_capacity

    return env_job(
        "ops",
        workload="phases",
        policy="chrome",
        num_requests=scale.accesses_per_core,
        warmup_requests=scale.warmup_per_core,
        capacity_bytes=serve_capacity(scale),
        num_segments=NUM_SEGMENTS,
        num_clients=8,
        seed=seed,
        workload_params=(("num_phases", 8),),
        ops_params=tuple(ops_params),
    )


def serve_ops_plan(scale: ExperimentScale) -> ExperimentPlan:
    from .config import OpsConfig

    window = ops_window(scale)
    jobs = {
        "baseline": ops_job(scale),
        "shadow-lru": ops_job(
            scale,
            ops_params=OpsConfig(
                window=window, challenger_policy="lru"
            ).params(),
        ),
        "bad-deploy": ops_job(
            scale,
            ops_params=OpsConfig(
                window=window, degrade_at_window=DEGRADE_WINDOW
            ).params(),
        ),
        "guarded": ops_job(scale, ops_params=guard_params(scale, degrade=True)),
    }

    def assemble(results: Mapping) -> ExperimentResult:
        rows: List[List[object]] = []
        for name, job in jobs.items():
            r = results[job]
            m = r.champion
            rows.append(
                [
                    name,
                    round(100.0 * m.object_hit_ratio, 2),
                    round(100.0 * m.byte_hit_ratio, 2),
                    round(m.p99_latency_ms, 2),
                    r.snapshots,
                    r.trips,
                    r.rollbacks,
                    r.degradations,
                ]
            )
        shadow = results[jobs["shadow-lru"]]
        unguarded = results[jobs["bad-deploy"]].champion
        guarded = results[jobs["guarded"]].champion
        notes = [
            "shadow challenger (lru) byte hit "
            f"{100.0 * shadow.challenger.byte_hit_ratio:.2f}% vs champion "
            f"{100.0 * shadow.champion.byte_hit_ratio:.2f}% "
            "(champion pinned identical to the no-shadow baseline)",
            "bad deploy: guarded byte hit "
            f"{100.0 * guarded.byte_hit_ratio:.2f}% / p99 "
            f"{guarded.p99_latency_ms:.2f}ms vs unguarded "
            f"{100.0 * unguarded.byte_hit_ratio:.2f}% / "
            f"{unguarded.p99_latency_ms:.2f}ms",
        ]
        return ExperimentResult(
            experiment_id="serve_ops",
            title="live ops: shadow eval, bad deploy, guarded rollback",
            columns=[
                "scenario",
                "object_hit%",
                "byte_hit%",
                "p99_ms",
                "snapshots",
                "trips",
                "rollbacks",
                "degradations",
            ],
            rows=rows,
            notes=notes,
        )

    return ExperimentPlan(
        experiment_id="serve_ops",
        jobs=tuple(jobs.values()),
        assemble=assemble,
    )


register_experiment("serve_ops", serve_ops_plan)
