"""Chaos benchmark: graceful degradation vs. naive failure handling.

Replays the ``serve_faults`` fault model (periodic full outages, error
bursts, latency spikes, post-outage slow start) against each stressed
policy twice — once with the resilient configuration (request latency
budget, retries with seeded-jitter backoff, per-tenant circuit
breaker, stale serving, load shedding) and once with the naive control
(one attempt, no breaker, no stale copies) — and writes both sides to
``benchmarks/results/BENCH_serve_faults.json``.

The acceptance gate this file enforces: for every stressed policy, the
resilient configuration must have a **strictly lower error rate** and
a **strictly lower p99 latency** than the naive control under the same
faults.  "Graceful degradation" is a measured property here, not a
slogan: the script exits non-zero if resilience does not pay for
itself.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_serve_faults.py
    PYTHONPATH=src python benchmarks/bench_serve_faults.py --requests 4000 --warmup 800
    PYTHONPATH=src python benchmarks/bench_serve_faults.py --json /tmp/faults.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

# Allow `python benchmarks/bench_serve_faults.py` without PYTHONPATH gymnastics.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.env import env_job  # noqa: E402
from repro.experiments.runner import ExperimentScale  # noqa: E402
from repro.serve.experiments import (  # noqa: E402
    FAULT_POLICIES,
    NAIVE_PARAMS,
    NUM_SEGMENTS,
    chaos_fault_params,
    resilient_params,
    serve_capacity,
)

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_serve_faults.json"


def run_one(
    policy: str,
    resilience_params: tuple,
    fault_params: tuple,
    requests: int,
    warmup: int,
    capacity: int,
    obs=None,
) -> dict:
    job = env_job(
        "serve",
        workload="zipf_scan",
        policy=policy,
        num_requests=requests,
        warmup_requests=warmup,
        capacity_bytes=capacity,
        num_segments=NUM_SEGMENTS,
        num_clients=8,
        seed=0,
        fault_params=fault_params,
        resilience_params=resilience_params,
    )
    start = time.perf_counter()
    metrics = job.execute(obs=obs)
    elapsed = time.perf_counter() - start
    return {
        "object_hit_ratio": round(metrics.object_hit_ratio, 4),
        "byte_hit_ratio": round(metrics.byte_hit_ratio, 4),
        "error_rate": round(metrics.error_rate, 4),
        "p99_latency_ms": round(metrics.p99_latency_ms, 3),
        "mean_latency_ms": round(metrics.mean_latency_ms, 3),
        "degraded_requests": metrics.degraded_requests,
        "degraded_p99_latency_ms": round(metrics.degraded_p99_latency_ms, 3),
        "errors": metrics.errors,
        "shed": metrics.shed,
        "stale_served": metrics.stale_served,
        "retries": metrics.retries,
        "timeouts": metrics.timeouts,
        "breaker_opens": metrics.breaker_opens,
        "breaker_denied": metrics.breaker_denied,
        "wall_seconds": round(elapsed, 2),
    }


def evaluate_gates(policies: dict) -> dict:
    """The acceptance decision, a pure function of the per-policy
    records (``results["policies"]``: policy -> {"naive", "resilient"}).

    Returns the ``acceptance`` entry of the results file: per policy,
    resilient must beat naive on error rate *and* p99 latency.
    """
    per_policy = {}
    for policy, table in policies.items():
        naive, resilient = table["naive"], table["resilient"]
        per_policy[policy] = {
            "naive_error_rate": naive["error_rate"],
            "resilient_error_rate": resilient["error_rate"],
            "naive_p99_ms": naive["p99_latency_ms"],
            "resilient_p99_ms": resilient["p99_latency_ms"],
            "error_rate_improved": resilient["error_rate"] < naive["error_rate"],
            "p99_improved": resilient["p99_latency_ms"] < naive["p99_latency_ms"],
        }
    return {
        "criterion": (
            "per policy: resilient error_rate < naive error_rate AND "
            "resilient p99_latency_ms < naive p99_latency_ms under the "
            "same injected faults"
        ),
        "per_policy": per_policy,
        "passed": all(
            v["error_rate_improved"] and v["p99_improved"]
            for v in per_policy.values()
        ),
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
    parser.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="record repro.obs telemetry artifacts into DIR (off by default)",
    )
    args = parser.parse_args()

    obs = None
    if args.obs_dir is not None:
        from repro.obs import ObsConfig

        obs = ObsConfig(out_dir=args.obs_dir)

    run_scale = replace(
        scale, accesses_per_core=args.requests, warmup_per_core=args.warmup
    )
    fault_params = chaos_fault_params(run_scale)
    res_params = resilient_params(run_scale)
    capacity = serve_capacity(scale)

    results: dict = {
        "description": (
            "Chaos comparison (benchmarks/bench_serve_faults.py): the "
            "serve_faults fault model (outages, error bursts, latency "
            "spikes, slow-start recovery) replayed per policy with the "
            "resilient configuration vs. the naive control, through the "
            "concurrent asyncio driver (8 clients, deterministic)."
        ),
        "config": {
            "requests": args.requests,
            "warmup": args.warmup,
            "capacity_bytes": capacity,
            "num_segments": NUM_SEGMENTS,
            "machine_scale": scale.machine_scale,
            "policies": list(FAULT_POLICIES),
            "fault_params": {k: v for k, v in fault_params},
            "resilient_params": {k: v for k, v in res_params},
        },
        "policies": {},
    }

    for policy in FAULT_POLICIES:
        table = {}
        for mode, params in (("naive", NAIVE_PARAMS), ("resilient", res_params)):
            record = run_one(
                policy, params, fault_params, args.requests, args.warmup,
                capacity, obs=obs,
            )
            table[mode] = record
            print(
                f"{policy:7s} {mode:9s} "
                f"err={record['error_rate']:.4f} "
                f"p99={record['p99_latency_ms']:7.2f}ms "
                f"retries={record['retries']:4d} "
                f"stale={record['stale_served']:3d} "
                f"breaker_opens={record['breaker_opens']:3d} "
                f"({record['wall_seconds']}s)"
            )
        results["policies"][policy] = table

    acceptance = results["acceptance"] = evaluate_gates(results["policies"])
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {args.json}")

    if not acceptance["passed"]:
        for policy, verdict in acceptance["per_policy"].items():
            if not (verdict["error_rate_improved"] and verdict["p99_improved"]):
                print(
                    f"FAIL: {policy}: resilient "
                    f"err={verdict['resilient_error_rate']:.4f} "
                    f"p99={verdict['resilient_p99_ms']:.2f}ms vs naive "
                    f"err={verdict['naive_error_rate']:.4f} "
                    f"p99={verdict['naive_p99_ms']:.2f}ms",
                    file=sys.stderr,
                )
        return 1
    for policy, verdict in acceptance["per_policy"].items():
        print(
            f"OK: {policy}: resilient degrades gracefully "
            f"(err {verdict['resilient_error_rate']:.4f} < "
            f"{verdict['naive_error_rate']:.4f}, p99 "
            f"{verdict['resilient_p99_ms']:.2f} < "
            f"{verdict['naive_p99_ms']:.2f}ms)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
