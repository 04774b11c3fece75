"""Serving-layer benchmark: CHROME vs. classic policies, with curves.

Runs the serve workload atlas (``zipf_scan``, ``multitenant``,
``phases``, ``proxy_burst``, ``retrieval``, ``storage_tier``) at the
default bench scale against every registered policy, records
object/byte hit ratios, backend load, latency and the cumulative
hit-ratio *curves* (how fast each policy converges), and writes
everything to ``benchmarks/results/BENCH_serve.json``.

The acceptance gates this file enforces (exit non-zero on any miss, so
the checks are mechanical, not editorial):

* on ``zipf_scan``, CHROME must beat LRU on **byte hit ratio** (the
  number a CDN bills by) — the original admission gate;
* on ``proxy_burst`` and ``retrieval``, CHROME must beat the **best**
  classic baseline (LRU/LFU/GDSF/S3-FIFO) on byte hit ratio — the
  atlas gate: the two families the related work (Cold-RL, Sun et al.)
  identifies as heuristic-hostile are exactly where learned admission
  must pay for itself against the strongest fixed policy, not just
  LRU.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_serve.py            # default scale
    PYTHONPATH=src python benchmarks/bench_serve.py --requests 6000 --warmup 1500
    PYTHONPATH=src python benchmarks/bench_serve.py --json /tmp/serve.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Allow `python benchmarks/bench_serve.py` without PYTHONPATH gymnastics.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.env import env_job  # noqa: E402
from repro.experiments.runner import ExperimentScale  # noqa: E402
from repro.serve.experiments import (  # noqa: E402
    NUM_SEGMENTS,
    SERVE_POLICIES_COMPARED,
    serve_capacity,
)

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_serve.json"

WORKLOADS = (
    "zipf_scan",
    "multitenant",
    "phases",
    "proxy_burst",
    "retrieval",
    "storage_tier",
)

#: atlas gate: CHROME must beat the best classic baseline on byte hit
#: ratio for these heuristic-hostile families
BEST_BASELINE_GATED = ("proxy_burst", "retrieval")


def run_one(
    workload: str,
    policy: str,
    requests: int,
    warmup: int,
    capacity: int,
    checkpoint_every: int,
) -> dict:
    job = env_job(
        "serve",
        workload=workload,
        policy=policy,
        num_requests=requests,
        warmup_requests=warmup,
        capacity_bytes=capacity,
        num_segments=NUM_SEGMENTS,
        num_clients=8,
        seed=0,
        checkpoint_every=checkpoint_every,
    )
    start = time.perf_counter()
    metrics = job.execute()
    elapsed = time.perf_counter() - start
    record = {
        "object_hit_ratio": round(metrics.object_hit_ratio, 4),
        "byte_hit_ratio": round(metrics.byte_hit_ratio, 4),
        "backend_load": round(metrics.backend_load, 4),
        "mean_latency_ms": round(metrics.mean_latency_ms, 3),
        "p99_latency_ms": round(metrics.p99_latency_ms, 3),
        "evictions": metrics.evictions,
        "bypassed": metrics.bypassed,
        "curve": [
            [n, round(ohr, 4), round(bhr, 4)] for n, ohr, bhr in metrics.curve
        ],
        "wall_seconds": round(elapsed, 2),
    }
    if policy == "chrome":
        record["telemetry"] = {
            k: metrics.telemetry[k]
            for k in ("q_updates", "bypass_decisions", "explorations")
            if k in metrics.telemetry
        }
    if workload == "multitenant":
        record["per_tenant_byte_hit"] = {
            str(t): round(tm.byte_hit_ratio, 4)
            for t, tm in sorted(metrics.per_tenant.items())
        }
    return record


def evaluate_gates(workloads: dict) -> dict:
    """The acceptance decisions, a pure function of the per-workload
    records (``results["workloads"]``: workload -> policy -> record).

    Returns the ``acceptance`` (zipf_scan, CHROME vs LRU) and
    ``atlas_acceptance`` (CHROME vs the best classic baseline on each
    :data:`BEST_BASELINE_GATED` family) entries of the results file.
    """
    zipf = workloads["zipf_scan"]
    chrome_bhr = zipf["chrome"]["byte_hit_ratio"]
    lru_bhr = zipf["lru"]["byte_hit_ratio"]
    acceptance = {
        "criterion": "chrome byte_hit_ratio > lru byte_hit_ratio on zipf_scan",
        "chrome_byte_hit_ratio": chrome_bhr,
        "lru_byte_hit_ratio": lru_bhr,
        "delta_points": round(100.0 * (chrome_bhr - lru_bhr), 2),
        "passed": chrome_bhr > lru_bhr,
    }
    atlas = {}
    for workload in BEST_BASELINE_GATED:
        table = workloads[workload]
        chrome = table["chrome"]["byte_hit_ratio"]
        best_name, best = max(
            ((p, table[p]["byte_hit_ratio"]) for p in table if p != "chrome"),
            key=lambda item: item[1],
        )
        atlas[workload] = {
            "criterion": (
                "chrome byte_hit_ratio > best classic baseline "
                f"byte_hit_ratio on {workload}"
            ),
            "chrome_byte_hit_ratio": chrome,
            "best_baseline": best_name,
            "best_baseline_byte_hit_ratio": best,
            "delta_points": round(100.0 * (chrome - best), 2),
            "passed": chrome > best,
        }
    return {"acceptance": acceptance, "atlas_acceptance": atlas}


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
    checkpoint_every = max(1, args.requests // 12)
    results: dict = {
        "description": (
            "Serving-layer comparison (benchmarks/bench_serve.py): each "
            "workload replayed against every registered policy through "
            "the concurrent asyncio driver (8 clients, deterministic). "
            "curve = cumulative [requests, object_hit_ratio, "
            "byte_hit_ratio] checkpoints."
        ),
        "config": {
            "requests": args.requests,
            "warmup": args.warmup,
            "capacity_bytes": capacity,
            "num_segments": NUM_SEGMENTS,
            "machine_scale": scale.machine_scale,
            "policies": list(SERVE_POLICIES_COMPARED),
        },
        "workloads": {},
    }

    for workload in WORKLOADS:
        table = {}
        for policy in SERVE_POLICIES_COMPARED:
            record = run_one(
                workload, policy, args.requests, args.warmup, capacity,
                checkpoint_every,
            )
            table[policy] = record
            print(
                f"{workload:12s} {policy:7s} "
                f"ohr={record['object_hit_ratio']:.4f} "
                f"bhr={record['byte_hit_ratio']:.4f} "
                f"p99={record['p99_latency_ms']:7.2f}ms "
                f"({record['wall_seconds']}s)"
            )
        results["workloads"][workload] = table

    results.update(evaluate_gates(results["workloads"]))

    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {args.json}")

    failed = False
    gate = results["acceptance"]
    if not gate["passed"]:
        print(
            f"FAIL: chrome byte hit ratio {gate['chrome_byte_hit_ratio']:.4f} "
            f"does not beat lru {gate['lru_byte_hit_ratio']:.4f} on zipf_scan",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"OK: chrome beats lru on zipf_scan byte hit ratio "
            f"({gate['chrome_byte_hit_ratio']:.4f} vs "
            f"{gate['lru_byte_hit_ratio']:.4f}, "
            f"{gate['delta_points']:+.2f} pts)"
        )
    for workload, gate in results["atlas_acceptance"].items():
        if not gate["passed"]:
            print(
                f"FAIL: chrome byte hit ratio "
                f"{gate['chrome_byte_hit_ratio']:.4f} does not beat "
                f"{gate['best_baseline']} "
                f"{gate['best_baseline_byte_hit_ratio']:.4f} on {workload}",
                file=sys.stderr,
            )
            failed = True
        else:
            print(
                f"OK: chrome beats {gate['best_baseline']} on {workload} "
                f"byte hit ratio ({gate['chrome_byte_hit_ratio']:.4f} vs "
                f"{gate['best_baseline_byte_hit_ratio']:.4f}, "
                f"{gate['delta_points']:+.2f} pts)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
