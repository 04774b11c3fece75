"""Cluster benchmark: the federated fleet vs. going it alone.

Runs three fleets over each serve workload family (``zipf_scan``,
``multitenant``, ``phases``) at the default bench scale:

* **federated** — 4 shards on the consistent-hash ring, periodic
  Q-table federation plus hot-key splitting;
* **unfederated** — the same ring with isolated shard agents (no
  merges, no hot-key handling);
* **isolated shards** — the no-clustering baseline: four independent
  shard-sized caches (total capacity / 4) each serving the *full*
  request stream alone, differing only in their shard-derived agent
  seed.  "Best isolated shard" is the best byte-hit ratio among them.

The acceptance gate this file enforces (and CI runs): on at least one
workload family, the federated 4-shard fleet must reach a byte-hit
ratio >= the best isolated shard.  That is the scaling claim — pooling
capacity behind the ring plus federating what the shards learn beats
the best any single shard-sized cache can do by itself.  The script
exits non-zero if no family passes, so the check is mechanical.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_cluster.py              # default scale
    PYTHONPATH=src python benchmarks/bench_cluster.py --requests 6000 --warmup 1200
    PYTHONPATH=src python benchmarks/bench_cluster.py --json /tmp/cluster.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Allow `python benchmarks/bench_cluster.py` without PYTHONPATH gymnastics.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.cluster.experiments import (  # noqa: E402
    NUM_SHARDS,
    REPLICATION,
)
from repro.env import env_job  # noqa: E402
from repro.experiments.runner import ExperimentScale  # noqa: E402
from repro.serve.config import ServiceConfig  # noqa: E402
from repro.serve.experiments import NUM_SEGMENTS, serve_capacity  # noqa: E402
from repro.serve.service import run_configured  # noqa: E402
from repro.serve.workloads import build_workload  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_cluster.json"

WORKLOADS = ("zipf_scan", "multitenant", "phases")

SEED = 11


def fleet_record(metrics, elapsed: float) -> dict:
    fleet = metrics.fleet
    return {
        "object_hit_ratio": round(fleet.object_hit_ratio, 4),
        "byte_hit_ratio": round(fleet.byte_hit_ratio, 4),
        "backend_load": round(fleet.backend_load, 4),
        "p99_latency_ms": round(fleet.p99_latency_ms, 3),
        "per_shard_byte_hit": [
            round(m.byte_hit_ratio, 4) for m in metrics.per_shard
        ],
        "routed": list(metrics.routed),
        "reroutes": metrics.reroutes,
        "ring_changes": metrics.ring_changes,
        "federations": metrics.federations,
        "hot_splits": metrics.hot_splits,
        "hot_evictions": metrics.hot_evictions,
        "wall_seconds": round(elapsed, 2),
    }


def run_fleet(
    workload: str, requests: int, warmup: int, capacity: int, federate: bool
) -> dict:
    job = env_job(
        "cluster",
        workload=workload,
        policy="chrome",
        num_requests=requests,
        warmup_requests=warmup,
        capacity_bytes=capacity,
        num_segments=NUM_SEGMENTS,
        num_shards=NUM_SHARDS,
        replication=REPLICATION,
        num_clients=8,
        seed=SEED,
        federate_every=max(1, requests // 8) if federate else 0,
        hotkey_window=max(256, requests // 16) if federate else 0,
    )
    start = time.perf_counter()
    metrics = job.execute()
    return fleet_record(metrics, time.perf_counter() - start)


def run_isolated_shards(
    workload: str, requests: int, warmup: int, capacity: int
) -> dict:
    """Four shard-sized caches, each alone against the full stream."""
    stream = build_workload(workload, requests + warmup, seed=SEED)
    base = ServiceConfig.from_params(
        capacity_bytes=capacity // NUM_SHARDS,
        num_segments=NUM_SEGMENTS,
        policy="chrome",
        num_clients=8,
        warmup_requests=warmup,
        seed=SEED,
        workload_name=workload,
    )
    start = time.perf_counter()
    ratios = []
    for shard in range(NUM_SHARDS):
        metrics = run_configured(list(stream), base.for_shard(shard))
        ratios.append(round(metrics.byte_hit_ratio, 4))
    return {
        "shard_byte_hit": ratios,
        "best_byte_hit": max(ratios),
        "wall_seconds": round(time.perf_counter() - start, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    scale = ExperimentScale.from_env()
    parser.add_argument(
        "--requests", type=int, default=scale.accesses_per_core,
        help="measured requests per run",
    )
    parser.add_argument(
        "--warmup", type=int, default=scale.warmup_per_core,
        help="warmup requests (trafficked but unmeasured)",
    )
    parser.add_argument(
        "--json", type=Path, default=RESULTS_PATH,
        help=f"output path (default {RESULTS_PATH})",
    )
    args = parser.parse_args()

    capacity = serve_capacity(scale)
    results: dict = {
        "description": (
            "Cluster comparison (benchmarks/bench_cluster.py): a "
            f"{NUM_SHARDS}-shard consistent-hash fleet (replication "
            f"{REPLICATION}) with and without Q-table federation, vs. "
            "four isolated shard-sized caches each serving the full "
            "stream alone.  The gate: the federated fleet's aggregate "
            "byte-hit ratio reaches >= the best isolated shard on at "
            "least one workload family."
        ),
        "config": {
            "requests": args.requests,
            "warmup": args.warmup,
            "total_capacity_bytes": capacity,
            "per_shard_capacity_bytes": capacity // NUM_SHARDS,
            "num_segments": NUM_SEGMENTS,
            "num_shards": NUM_SHARDS,
            "replication": REPLICATION,
            "seed": SEED,
            "machine_scale": scale.machine_scale,
        },
        "workloads": {},
    }

    passed_families = []
    for workload in WORKLOADS:
        federated = run_fleet(
            workload, args.requests, args.warmup, capacity, federate=True
        )
        unfederated = run_fleet(
            workload, args.requests, args.warmup, capacity, federate=False
        )
        isolated = run_isolated_shards(
            workload, args.requests, args.warmup, capacity
        )
        gate = federated["byte_hit_ratio"] >= isolated["best_byte_hit"]
        if gate:
            passed_families.append(workload)
        results["workloads"][workload] = {
            "federated_fleet": federated,
            "unfederated_fleet": unfederated,
            "isolated_shards": isolated,
            "federated_beats_best_isolated": gate,
        }
        print(
            f"{workload:12s} fed={federated['byte_hit_ratio']:.4f} "
            f"unfed={unfederated['byte_hit_ratio']:.4f} "
            f"best_isolated={isolated['best_byte_hit']:.4f} "
            f"{'PASS' if gate else 'fail'}"
        )

    results["acceptance"] = {
        "criterion": (
            "federated fleet byte_hit_ratio >= best isolated shard on "
            ">=1 workload family"
        ),
        "passed_families": passed_families,
        "passed": bool(passed_families),
    }

    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {args.json}")

    if not passed_families:
        print(
            "FAIL: the federated fleet did not reach the best isolated "
            "shard's byte-hit ratio on any workload family",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: federation beats the best isolated shard on "
        f"{', '.join(passed_families)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
