"""Serving-layer quickstart: CHROME as an object-cache admission/eviction brain.

Replays a Zipf-with-scans request stream against a byte-budgeted object
store three times — LRU, S3-FIFO, and the CHROME serve agent — through
the concurrent asyncio front-end (8 clients; results are bit-identical
for any client count).  Then demonstrates warm starts: the trained
agent is saved to JSON, restored into a fresh policy, and the restored
agent continues on new traffic deterministically (two restores replay
to bit-identical Q-tables).  Finally, a chaos demo: a per-tenant
brownout is injected into a multi-tenant run, and the resilient
configuration (circuit breaker + stale serving + retries) is compared
against a naive control on the same faults.

Run:
    PYTHONPATH=src python examples/serve_quickstart.py
    PYTHONPATH=src python examples/serve_quickstart.py --requests 30000
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.serve import (  # noqa: E402
    ChromeServePolicy,
    FaultConfig,
    ResilienceConfig,
    ServiceConfig,
    build_workload,
    make_serve_policy,
    run_configured,
)

CAPACITY = 16 << 20  # 16 MiB object store
SEGMENTS = 128


def compare_policies(requests, warmup: int) -> ChromeServePolicy:
    """CHROME vs classic baselines on identical traffic."""
    print(f"{'policy':8s} {'object_hit':>10s} {'byte_hit':>9s} "
          f"{'backend':>8s} {'p99_ms':>7s}")
    chrome_policy = None
    for name in ("lru", "lfu", "gdsf", "s3fifo", "chrome"):
        policy = make_serve_policy(name, **({"seed": 7} if name == "chrome" else {}))
        config = ServiceConfig(CAPACITY, SEGMENTS, policy=name,
                               num_clients=8, warmup_requests=warmup)
        metrics = run_configured(requests, config, policy=policy)
        print(f"{name:8s} {metrics.object_hit_ratio:10.4f} "
              f"{metrics.byte_hit_ratio:9.4f} {metrics.backend_load:8.4f} "
              f"{metrics.p99_latency_ms:7.2f}")
        if name == "chrome":
            chrome_policy = policy
    return chrome_policy


def warm_start_round_trip(trained: ChromeServePolicy, requests) -> None:
    """Save the trained agent, restore it twice, continue deterministically."""
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "serve_agent.json"
        trained.agent.save(snapshot)
        print(f"\nsaved trained agent ({trained.agent.qtable.updates} Q-updates) "
              f"-> {snapshot.name}")

        continuations = []
        for attempt in range(2):
            policy = ChromeServePolicy(seed=7)
            policy.agent.restore(snapshot)
            config = ServiceConfig(CAPACITY, SEGMENTS, policy="chrome",
                                   num_clients=4)
            metrics = run_configured(requests, config, policy=policy)
            continuations.append(
                (metrics.hits, policy.agent.qtable.state_dict())
            )
            print(f"restore #{attempt + 1}: byte_hit={metrics.byte_hit_ratio:.4f} "
                  f"q_updates={policy.agent.qtable.updates}")
        identical = continuations[0] == continuations[1]
        print(f"restored continuations bit-identical: {identical}")
        assert identical, "warm-start continuation must be deterministic"


def brownout_demo(num_requests: int) -> None:
    """Inject a per-tenant brownout; compare graceful vs. naive failure.

    Tenant 0's origin shard (the Zipf service) degrades periodically:
    70% of its fetches fail and the survivors run 3x slow.  The naive
    control surfaces every failure as an error; the resilient
    configuration retries with seeded-jitter backoff (a 70%-failing
    attempt becomes a ~34%-failing request at 3 attempts) and serves
    evicted-but-retained objects stale instead of erroring — Zipf
    traffic re-requests its evicted tail, which is exactly what the
    stale LRU holds.  Faults are pure functions of (seed, request,
    virtual time), so both runs see *exactly* the same brownouts.
    """
    horizon = num_requests * 0.5  # virtual ms at the default arrival rate
    faults = FaultConfig(
        seed=11,
        error_rate=0.005,
        brownout_tenant=0,
        brownout_every_ms=horizon / 4,
        brownout_duration_ms=horizon / 10,
        brownout_error_rate=0.7,
        brownout_multiplier=3.0,
    )
    # Budget above the 3x-multiplied fetch latency: a partial brownout
    # is a retry problem, not a fast-fail problem (the breaker stays
    # closed unless failures run 8+ consecutive).
    resilient = ResilienceConfig(
        timeout_ms=60.0,
        breaker_open_ms=max(2.0, horizon / 150),
        stale_entries=4096,
    )
    traffic = build_workload("multitenant", num_requests, seed=5)
    # A small store so evictions happen and stale serving has copies.
    capacity, segments = 2 << 20, 64
    print(f"\nbrownout chaos demo (tenant 0, {num_requests} requests):")
    print(f"{'mode':10s} {'err%':>6s} {'t0_miss%':>9s} {'stale':>6s} "
          f"{'retries':>8s} {'breaker':>8s} {'p99_ms':>7s}")
    outcomes = {}
    for mode, policy_config in (
        ("naive", ResilienceConfig.none()),
        ("resilient", resilient),
    ):
        config = ServiceConfig(capacity, segments, num_clients=8,
                               faults=faults, resilience=policy_config)
        metrics = run_configured(traffic, config, policy=make_serve_policy("lru"))
        # errors concentrate on the browned-out tenant; per-tenant hit
        # ratios show the blast radius stays contained
        t0 = metrics.per_tenant[0]
        outcomes[mode] = metrics
        print(f"{mode:10s} {100 * metrics.error_rate:6.2f} "
              f"{100 * (1 - t0.object_hit_ratio):9.2f} "
              f"{metrics.stale_served:6d} {metrics.retries:8d} "
              f"{metrics.breaker_opens:8d} {metrics.p99_latency_ms:7.2f}")
    naive, res = outcomes["naive"], outcomes["resilient"]
    print(f"resilient turned {res.stale_served} would-be errors into stale "
          f"serves and cut the error rate "
          f"{100 * naive.error_rate:.2f}% -> {100 * res.error_rate:.2f}%")
    assert res.error_rate < naive.error_rate, (
        "resilience must lower the error rate under a brownout"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=20_000)
    parser.add_argument("--warmup", type=int, default=4_000)
    args = parser.parse_args()

    requests = build_workload(
        "zipf_scan", args.requests + args.warmup, seed=0
    )
    trained = compare_policies(requests, args.warmup)

    fresh_traffic = build_workload("zipf_scan", max(2_000, args.requests // 4),
                                   seed=99)
    warm_start_round_trip(trained, fresh_traffic)

    brownout_demo(max(3_000, args.requests // 4))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
