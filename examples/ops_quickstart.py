"""Ops quickstart: shadow evaluation, bad-deploy rollback, determinism.

Three demos of the live-operations layer (`repro.ops`, DESIGN.md §10):

1. **Shadow zero-impact** — an LRU challenger shadows a CHROME
   champion on a seeded ``zipf_scan`` stream.  The challenger sees a
   duplicate of every request, yet the champion's metrics stay
   byte-identical to a plain un-shadowed run: shadow evaluation is
   free from the champion's point of view.
2. **Guardrail + rollback** — a simulated bad model deploy (the worst
   on-grid policy: bypass everything) lands at window 6 of a drifting
   ``phases`` workload.  Unguarded, the cache freezes and misses flood
   the origin for the rest of the run.  Guarded, the byte-hit EWMA
   trips within a few windows and the controller rolls the agent back
   to the newest known-good snapshot — the guarded run beats the
   unguarded one on both byte-hit and tail latency, the same gate
   `benchmarks/bench_ops.py` enforces in CI.
3. **Client-count invariance** — the full guarded run (windows, trips,
   rollbacks, every event's seq and virtual timestamp) is bit-identical
   with 1 and 64 concurrent clients, because every ops decision fires
   at window boundaries of the global request sequence.

Run:
    PYTHONPATH=src python examples/ops_quickstart.py
    PYTHONPATH=src python examples/ops_quickstart.py --requests 8000
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.ops import OpsConfig, run_ops  # noqa: E402
from repro.serve import (  # noqa: E402
    LatencyConfig,
    ServiceConfig,
    build_workload,
    run_configured,
)

CAPACITY = 2 << 20
SEGMENTS = 64
SEED = 17
DEGRADE_WINDOW = 6


def _config(workload: str, warmup: int, **overrides) -> ServiceConfig:
    params = dict(
        capacity_bytes=CAPACITY,
        num_segments=SEGMENTS,
        policy="chrome",
        num_clients=8,
        warmup_requests=warmup,
        seed=SEED,
        workload_name=workload,
    )
    params.update(overrides)
    return ServiceConfig.from_params(**params)


def shadow_demo(requests: int, warmup: int) -> None:
    """An LRU challenger shadows the champion at zero champion cost."""
    stream = build_workload("zipf_scan", requests + warmup, seed=SEED)
    config = _config("zipf_scan", warmup)
    plain = run_configured(list(stream), config)
    window = max(50, (requests + warmup) // 16)
    shadowed = run_ops(
        list(stream), config,
        OpsConfig(window=window, challenger_policy="lru"),
    )
    print(f"shadow demo ({requests} zipf_scan requests, window {window}):")
    print(f"  champion byte_hit   {shadowed.champion.byte_hit_ratio:.4f} "
          f"(challenger lru: {shadowed.challenger.byte_hit_ratio:.4f})")
    identical = shadowed.champion == plain
    print(f"  champion unchanged by the shadow: {identical}")
    assert identical, "shadow evaluation must not perturb the champion"


def rollback_demo(requests: int, warmup: int) -> OpsConfig:
    """Bad deploy at window 6: the guardrail pays for itself."""
    total = requests + warmup
    stream = build_workload("phases", total, seed=SEED, num_phases=8)
    # queue-divergent origin: reacting late costs real tail latency
    config = _config(
        "phases", warmup, latency=LatencyConfig(queue_penalty_ms=0.6)
    )
    window = max(50, total // 21)

    def ops(guarded: bool) -> OpsConfig:
        return OpsConfig(
            window=window,
            min_byte_hit_ewma=0.05 if guarded else -1.0,
            trip_after=2,
            warmup_windows=2,
            snapshot_every=2 if guarded else 0,
            degrade_at_window=DEGRADE_WINDOW,
        )

    unguarded = run_ops(list(stream), config, ops(False))
    guarded = run_ops(list(stream), config, ops(True))
    print(f"\nbad-deploy demo (phases workload, degrade at window "
          f"{DEGRADE_WINDOW}):")
    for label, r in (("unguarded", unguarded), ("guarded", guarded)):
        print(f"  {label:10s} byte_hit {r.champion.byte_hit_ratio:.4f}  "
              f"p99 {r.champion.p99_latency_ms:8.2f}ms  "
              f"trips {r.trips}  rollbacks {r.rollbacks}")
    assert guarded.rollbacks >= 1, "the guardrail must have fired"
    assert guarded.champion.byte_hit_ratio > unguarded.champion.byte_hit_ratio
    assert guarded.champion.p99_latency_ms < unguarded.champion.p99_latency_ms
    print("  guarded beats unguarded on byte_hit AND p99: True")
    return ops(True)


def invariance_demo(requests: int, warmup: int, guarded: OpsConfig) -> None:
    """Same guarded run, 1 vs 64 clients: every event bit-identical."""
    total = requests + warmup
    stream = build_workload("phases", total, seed=SEED, num_phases=8)
    base = _config(
        "phases", warmup, latency=LatencyConfig(queue_penalty_ms=0.6)
    )
    one = run_ops(list(stream), replace(base, num_clients=1), guarded)
    many = run_ops(list(stream), replace(base, num_clients=64), guarded)
    identical = one == many
    print(f"\nnum_clients 1 vs 64 (guarded run, rollback included): "
          f"bit-identical = {identical}")
    assert identical, "ops decisions must not depend on client count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=4_000)
    parser.add_argument("--warmup", type=int, default=200)
    args = parser.parse_args()

    shadow_demo(args.requests, args.warmup)
    guarded = rollback_demo(args.requests, args.warmup)
    invariance_demo(args.requests, args.warmup, guarded)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
