"""The ``cluster`` experiment: fleet configurations head to head.

One registered experiment (import-time, like the serve experiments)
comparing four fleets of identical total capacity on the ``zipf_scan``
admission workload:

* ``lru``            — 4-shard LRU fleet (the non-learned baseline);
* ``chrome``         — 4 isolated CHROME agents (each learns only from
  its ring slice);
* ``chrome+fed``     — the same fleet with periodic Q-table federation
  and hot-key splitting;
* ``chrome+fed+kill``— the federated fleet with shard 2 killed mid-run
  via FaultConfig outage windows: the ring reroutes around it, heals
  when it returns, and the row quantifies the damage.

The note at the bottom prints the comparison the bench gate formalizes:
fleet-aggregate byte hit of the federated fleet vs. the *best isolated
shard* of the unfederated one.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from ..experiments.engine import ExperimentPlan
from ..experiments.registry import register_experiment
from ..experiments.report import ExperimentResult
from ..experiments.runner import ExperimentScale

# NOTE: sibling cluster modules and serve run-size helpers are imported
# lazily inside the builders — this module loads mid-import of both
# ``repro.cluster`` (package init) and ``repro.serve`` (the experiments
# package's eager registration), before either has finished.

NUM_SHARDS = 4
REPLICATION = 2

#: which shard the chaos scenario kills (mid-ring, nothing special)
KILLED_SHARD = 2


def kill_fault_params(
    scale: ExperimentScale, seed: int = 3
) -> Tuple[Tuple[str, object], ...]:
    """Outage windows that take one shard down for ~25% of the run.

    ``outage_every_ms`` equals the virtual horizon, so exactly one
    window lands inside the run (its jittered start is always early
    enough for the full outage to fit); the ring loses the shard, heals
    around it, and gets it back before the run ends.
    """
    from ..serve.experiments import INTER_ARRIVAL_MS

    horizon = (scale.accesses_per_core + scale.warmup_per_core) * INTER_ARRIVAL_MS
    return (
        ("seed", seed),
        ("outage_every_ms", round(horizon, 3)),
        ("outage_duration_ms", round(horizon / 4.0, 3)),
    )


def cluster_job(
    scale: ExperimentScale,
    policy: str,
    *,
    federate: bool = False,
    kill: bool = False,
    seed: int = 0,
):
    from ..env.jobs import env_job
    from ..serve.experiments import NUM_SEGMENTS, serve_capacity

    num_requests = scale.accesses_per_core
    return env_job(
        "cluster",
        workload="zipf_scan",
        policy=policy,
        num_requests=num_requests,
        warmup_requests=scale.warmup_per_core,
        capacity_bytes=serve_capacity(scale),
        num_segments=NUM_SEGMENTS,
        num_shards=NUM_SHARDS,
        replication=REPLICATION,
        num_clients=8,
        seed=seed,
        federate_every=max(1, num_requests // 8) if federate else 0,
        hotkey_window=max(256, num_requests // 16) if federate else 0,
        kill_shard=KILLED_SHARD if kill else -1,
        kill_fault_params=kill_fault_params(scale) if kill else (),
    )


def cluster_plan(scale: ExperimentScale) -> ExperimentPlan:
    jobs = {
        "lru": cluster_job(scale, "lru"),
        "chrome": cluster_job(scale, "chrome"),
        "chrome+fed": cluster_job(scale, "chrome", federate=True),
        "chrome+fed+kill": cluster_job(
            scale, "chrome", federate=True, kill=True
        ),
    }

    def assemble(results: Mapping) -> ExperimentResult:
        rows: List[List[object]] = []
        for name, job in jobs.items():
            cm = results[job]
            fleet = cm.fleet
            rows.append(
                [
                    name,
                    round(100.0 * fleet.object_hit_ratio, 2),
                    round(100.0 * fleet.byte_hit_ratio, 2),
                    round(fleet.p99_latency_ms, 2),
                    cm.reroutes,
                    cm.ring_changes,
                    cm.federations,
                    cm.hot_splits,
                ]
            )
        isolated = results[jobs["chrome"]]
        federated = results[jobs["chrome+fed"]]
        killed = results[jobs["chrome+fed+kill"]]
        best_isolated = max(
            m.byte_hit_ratio for m in isolated.per_shard
        )
        notes = [
            "federated fleet byte hit "
            f"{100.0 * federated.fleet.byte_hit_ratio:.2f}% vs best "
            f"isolated shard {100.0 * best_isolated:.2f}%",
            f"shard {KILLED_SHARD} kill: {killed.reroutes} reroutes, "
            f"{killed.ring_changes} ring changes, byte hit "
            f"{100.0 * killed.fleet.byte_hit_ratio:.2f}%",
        ]
        return ExperimentResult(
            experiment_id="cluster",
            title=(
                f"{NUM_SHARDS}-shard cache fleet: consistent hashing, "
                "federation, shard kill"
            ),
            columns=[
                "fleet",
                "object_hit%",
                "byte_hit%",
                "p99_ms",
                "reroutes",
                "ring_changes",
                "federations",
                "hot_splits",
            ],
            rows=rows,
            notes=notes,
        )

    return ExperimentPlan(
        experiment_id="cluster",
        jobs=tuple(jobs.values()),
        assemble=assemble,
    )


register_experiment("cluster", cluster_plan)
