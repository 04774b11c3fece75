"""Ops benchmark: the guardrail must pay for itself under a bad deploy.

Simulates the live-operations story end to end on a drifting (phases)
workload with a queue-divergent origin: at window 6 the champion's
Q-tables are overwritten with the worst on-grid policy (bypass
everything — the cache freezes), exactly the way a bad model deploy
ships a broken policy to production.  Three runs:

* **clean** — no degradation, no guardrail: the ceiling;
* **unguarded** — the bad deploy lands and nothing reacts: misses
  flood the origin, the queue diverges, and tail latency grows for the
  rest of the run;
* **guarded** — the same bad deploy under the ops guardrail
  (byte-hit-EWMA trip + last-known-good snapshot ring): the trip fires
  within a few windows and rollback restores the pre-deploy agent.

The acceptance gate this file enforces (and CI runs): the guarded run
must strictly beat the unguarded run on BOTH final byte-hit ratio and
p99 latency.  Every run is deterministic (fixed seed, virtual time),
so the gate is mechanical, not statistical.  The script exits non-zero
when the gate fails.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_ops.py                 # default scale
    PYTHONPATH=src python benchmarks/bench_ops.py --requests 2000 --warmup 400
    PYTHONPATH=src python benchmarks/bench_ops.py --json /tmp/ops.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Allow `python benchmarks/bench_ops.py` without PYTHONPATH gymnastics.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.ops import OpsConfig, run_ops  # noqa: E402
from repro.serve.config import LatencyConfig, ServiceConfig  # noqa: E402
from repro.serve.workloads import build_workload  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_ops.json"

SEED = 17
CAPACITY_BYTES = 2 << 20
NUM_SEGMENTS = 64
NUM_PHASES = 8
DEGRADE_WINDOW = 6
#: queue growth per outstanding fetch > inter-arrival rate: under a
#: 100%-miss flood the origin queue diverges instead of settling, so
#: reacting late costs real tail latency (the p99 side of the gate)
QUEUE_PENALTY_MS = 0.6


def _service_config(num_requests: int, warmup: int) -> ServiceConfig:
    return ServiceConfig.from_params(
        capacity_bytes=CAPACITY_BYTES,
        num_segments=NUM_SEGMENTS,
        policy="chrome",
        num_clients=8,
        warmup_requests=warmup,
        seed=SEED,
        workload_name="phases",
        latency=LatencyConfig(queue_penalty_ms=QUEUE_PENALTY_MS),
    )


def _ops_config(window: int, guarded: bool, degrade: bool) -> OpsConfig:
    return OpsConfig(
        window=window,
        min_byte_hit_ewma=0.05 if guarded else -1.0,
        trip_after=2,
        warmup_windows=2,
        snapshot_every=2 if guarded else 0,
        degrade_at_window=DEGRADE_WINDOW if degrade else -1,
    )


def _run(scenario: str, requests, config, ops) -> dict:
    start = time.perf_counter()
    result = run_ops(requests, config, ops)
    m = result.champion
    return {
        "scenario": scenario,
        "byte_hit_ratio": round(m.byte_hit_ratio, 4),
        "object_hit_ratio": round(m.object_hit_ratio, 4),
        "p99_latency_ms": round(m.p99_latency_ms, 3),
        "snapshots": result.snapshots,
        "trips": result.trips,
        "rollbacks": result.rollbacks,
        "degradations": result.degradations,
        "events": [
            {k: e[k] for k in ("kind", "window", "seq")} for e in result.events
        ],
        "wall_seconds": round(time.perf_counter() - start, 2),
    }


def evaluate_gates(runs: dict) -> dict:
    """The acceptance decision, a pure function of the per-scenario
    records (``results["runs"]``: scenario -> record).

    Returns the ``acceptance`` entry of the results file: the guarded
    run must strictly beat the unguarded one on byte hit and p99, and
    its guardrail must have tripped and rolled back.
    """
    guarded, unguarded = runs["guarded_degrade"], runs["unguarded_degrade"]
    gate_byte_hit = guarded["byte_hit_ratio"] > unguarded["byte_hit_ratio"]
    gate_p99 = guarded["p99_latency_ms"] < unguarded["p99_latency_ms"]
    reacted = guarded["trips"] >= 1 and guarded["rollbacks"] >= 1
    return {
        "criterion": (
            "guarded beats unguarded on byte_hit AND p99, with >=1 "
            "trip and >=1 rollback"
        ),
        "gate_byte_hit": gate_byte_hit,
        "gate_p99": gate_p99,
        "guardrail_reacted": reacted,
        "passed": gate_byte_hit and gate_p99 and reacted,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--requests", type=int, default=4000, help="measured requests"
    )
    parser.add_argument(
        "--warmup", type=int, default=200,
        help="warmup requests (trafficked but unmeasured)",
    )
    parser.add_argument(
        "--json", type=Path, default=RESULTS_PATH,
        help=f"output path (default {RESULTS_PATH})",
    )
    args = parser.parse_args()

    total = args.requests + args.warmup
    # ~21 evaluation windows regardless of scale, so the bad deploy at
    # window 6 always lands in the first third of the run.
    window = max(50, total // 21)
    requests = build_workload(
        "phases", total, seed=SEED, num_phases=NUM_PHASES
    )
    config = _service_config(total, args.warmup)

    runs = {}
    for scenario, guarded, degrade in (
        ("clean", False, False),
        ("unguarded_degrade", False, True),
        ("guarded_degrade", True, True),
    ):
        ops = _ops_config(window, guarded, degrade)
        runs[scenario] = _run(scenario, requests, config, ops)
        r = runs[scenario]
        print(
            f"{scenario:18s} byte_hit={r['byte_hit_ratio']:.4f} "
            f"p99={r['p99_latency_ms']:8.2f}ms trips={r['trips']} "
            f"rollbacks={r['rollbacks']}"
        )

    results = {
        "description": (
            "Live-operations guardrail benchmark (benchmarks/bench_ops.py): "
            "a simulated bad model deploy (bypass-everything Q-tables "
            f"injected at window {DEGRADE_WINDOW}) on the drifting "
            "'phases' workload with a queue-divergent origin.  The gate: "
            "the guarded run (byte-hit-EWMA guardrail + snapshot-ring "
            "rollback) strictly beats the unguarded run on BOTH byte-hit "
            "ratio and p99 latency, and actually tripped/rolled back."
        ),
        "config": {
            "requests": args.requests,
            "warmup": args.warmup,
            "window": window,
            "capacity_bytes": CAPACITY_BYTES,
            "num_segments": NUM_SEGMENTS,
            "num_phases": NUM_PHASES,
            "degrade_at_window": DEGRADE_WINDOW,
            "queue_penalty_ms": QUEUE_PENALTY_MS,
            "min_byte_hit_ewma": 0.05,
            "seed": SEED,
        },
        "runs": runs,
        "acceptance": evaluate_gates(runs),
    }

    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {args.json}")

    gate = results["acceptance"]
    if not gate["passed"]:
        print(
            "FAIL: guarded run did not strictly beat the unguarded run "
            f"(byte_hit {gate['gate_byte_hit']}, p99 {gate['gate_p99']}, "
            f"reacted {gate['guardrail_reacted']})",
            file=sys.stderr,
        )
        return 1
    guarded, unguarded = runs["guarded_degrade"], runs["unguarded_degrade"]
    print(
        "OK: rollback recovered the fleet — guarded "
        f"byte_hit {guarded['byte_hit_ratio']:.4f} > "
        f"{unguarded['byte_hit_ratio']:.4f} and p99 "
        f"{guarded['p99_latency_ms']:.2f}ms < "
        f"{unguarded['p99_latency_ms']:.2f}ms"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
