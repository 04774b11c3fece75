"""The ``env_toy`` experiment: the toy environment through the engine.

The end-to-end existence proof for the Environment protocol: the toy
DRAM-row domain (one adapter file, zero learning code of its own) runs
as a registered experiment through the same parallel engine, caches
and reporting as the LLC/serve/cluster domains.  The table compares
the CHROME-managed open-row cache across seeds against what the hit
ceiling of the stream allows, plus a no-exploration ablation via the
shared config surface — exercising spec-driven construction, engine
dedup and result assembly over :class:`~repro.env.jobs.EnvJob`.
"""

from __future__ import annotations

from typing import List, Mapping

from ..experiments.engine import ExperimentPlan
from ..experiments.registry import register_experiment
from ..experiments.report import ExperimentResult
from ..experiments.runner import ExperimentScale

#: toy-run length relative to the per-core access budget
STEPS_FRACTION = 1.0 / 4.0

SEEDS = (0, 1, 2)


def toy_steps(scale: ExperimentScale) -> int:
    return max(1000, int(scale.accesses_per_core * STEPS_FRACTION))


def env_toy_plan(scale: ExperimentScale) -> ExperimentPlan:
    from .jobs import env_job

    steps = toy_steps(scale)
    jobs = {
        **{f"seed-{s}": env_job("toy", num_steps=steps, seed=s) for s in SEEDS},
        "greedy": env_job("toy", num_steps=steps, seed=0, epsilon=0.0),
    }

    def assemble(results: Mapping) -> ExperimentResult:
        rows: List[List[object]] = []
        for name, job in jobs.items():
            r = results[job]
            t = r["telemetry"]
            rows.append(
                [
                    name,
                    r["steps"],
                    round(100.0 * r["row_hit_ratio"], 2),
                    r["bypasses"],
                    t["explorations"],
                    t["q_updates"],
                ]
            )
        base = results[jobs["seed-0"]]
        notes = [
            f"toy DRAM-row domain: {base['steps']} steps, "
            f"{100.0 * base['row_hit_ratio']:.2f}% row hit "
            "(one adapter file; all learning from the shared AgentCore)",
        ]
        return ExperimentResult(
            experiment_id="env_toy",
            title="environment protocol: toy DRAM-row cache domain",
            columns=[
                "run",
                "steps",
                "row_hit%",
                "bypasses",
                "explorations",
                "q_updates",
            ],
            rows=rows,
            notes=notes,
        )

    return ExperimentPlan(
        experiment_id="env_toy",
        jobs=tuple(jobs.values()),
        assemble=assemble,
    )


register_experiment("env_toy", env_toy_plan)
