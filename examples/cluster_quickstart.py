"""Cluster quickstart: the serve tier scaled out to a sharded fleet.

Three demos on one seeded ``zipf_scan`` stream:

1. **Scaling + federation** — a 4-shard consistent-hash fleet (each
   shard its own CHROME serve agent, Q-tables federated periodically,
   hot keys split across replicas) against the no-clustering baseline:
   a single shard-sized cache serving the full stream alone.  The
   fleet's aggregate byte-hit ratio beats the best isolated shard —
   the gate `benchmarks/bench_cluster.py` enforces in CI.
2. **Shard kill** — shard 2 dies for a quarter of the run via the same
   deterministic fault machinery the chaos layer uses; the ring skips
   it (replicas absorb its keys), heals when it returns, and the run
   stays bit-identical when repeated.
3. **Client-count invariance** — the killed-shard fleet produces
   byte-identical metrics with 1 and 64 concurrent clients, because
   routing, liveness and federation are all pure functions of the
   request sequence number and the virtual clock.

Run:
    PYTHONPATH=src python examples/cluster_quickstart.py
    PYTHONPATH=src python examples/cluster_quickstart.py --requests 20000
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.env import EnvJob, env_job  # noqa: E402
from repro.serve import ServiceConfig, build_workload, run_configured  # noqa: E402

NUM_SHARDS = 4
CAPACITY = 8 << 20  # total fleet capacity, split across shards
SEGMENTS = 64
SEED = 11


def base_job(requests: int, warmup: int, **overrides) -> EnvJob:
    spec = dict(
        workload="zipf_scan",
        policy="chrome",
        num_requests=requests,
        warmup_requests=warmup,
        capacity_bytes=CAPACITY,
        num_segments=SEGMENTS,
        num_shards=NUM_SHARDS,
        replication=2,
        num_clients=8,
        seed=SEED,
        federate_every=max(1, requests // 8),
        hotkey_window=512,
    )
    spec.update(overrides)
    return env_job("cluster", **spec)


def federation_demo(requests: int, warmup: int) -> None:
    """Fleet vs. the best single shard-sized cache going it alone."""
    fleet = base_job(requests, warmup).execute()
    stream = build_workload("zipf_scan", requests + warmup, seed=SEED)
    solo = ServiceConfig.from_params(
        capacity_bytes=CAPACITY // NUM_SHARDS,
        num_segments=SEGMENTS,
        policy="chrome",
        num_clients=8,
        warmup_requests=warmup,
        seed=SEED,
        workload_name="zipf_scan",
    )
    isolated = [
        run_configured(list(stream), solo.for_shard(i)).byte_hit_ratio
        for i in range(NUM_SHARDS)
    ]
    print(f"{NUM_SHARDS}-shard federated fleet on zipf_scan "
          f"({requests} requests):")
    print(f"  fleet byte_hit      {fleet.fleet.byte_hit_ratio:.4f} "
          f"(per shard: {[round(m.byte_hit_ratio, 3) for m in fleet.per_shard]})")
    print(f"  isolated shards     {[round(r, 3) for r in isolated]} "
          f"(best {max(isolated):.4f})")
    print(f"  federation rounds   {fleet.federations}, hot-key splits "
          f"{fleet.hot_splits}")
    assert fleet.fleet.byte_hit_ratio >= max(isolated), (
        "the pooled, federated fleet must beat the best isolated shard"
    )
    print("  fleet beats the best isolated shard: True")


def shard_kill_demo(requests: int, warmup: int) -> EnvJob:
    """Kill shard 2 mid-run; the ring routes around it and heals."""
    horizon_ms = (requests + warmup) * 0.5  # virtual clock, 0.5 ms arrivals
    job = base_job(
        requests,
        warmup,
        kill_shard=2,
        kill_fault_params=(
            ("seed", 3),
            ("outage_every_ms", round(horizon_ms, 3)),
            ("outage_duration_ms", round(horizon_ms / 4.0, 3)),
        ),
    )
    metrics = job.execute()
    print(f"\nshard-kill demo (shard 2 down ~25% of the run):")
    print(f"  ring changes {metrics.ring_changes} (down, then healed), "
          f"reroutes {metrics.reroutes}, unroutable {metrics.unroutable}")
    print(f"  fleet byte_hit {metrics.fleet.byte_hit_ratio:.4f}, "
          f"routed per shard {list(metrics.routed)}")
    assert metrics.ring_changes == 2 and metrics.unroutable == 0
    return job


def invariance_demo(job: EnvJob) -> None:
    """Same fleet, 1 vs 64 concurrent clients: byte-identical."""
    one = env_job("cluster", **{**job.params, "num_clients": 1}).execute()
    many = env_job("cluster", **{**job.params, "num_clients": 64}).execute()
    identical = one == many
    print(f"\nnum_clients 1 vs 64 (with the mid-run kill): "
          f"bit-identical = {identical}")
    assert identical, "cluster metrics must not depend on client count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=8_000)
    parser.add_argument("--warmup", type=int, default=1_600)
    args = parser.parse_args()

    federation_demo(args.requests, args.warmup)
    killed = shard_kill_demo(args.requests, args.warmup)
    invariance_demo(killed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
