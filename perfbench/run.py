#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sim_hetero4 --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` repeats the workload's unit
(inputs built from ``--seed``, an LRU run and a CHROME run, output
checks) for about ``--seconds`` seconds and prints every end-to-end
metric.  ``--trace 1`` runs one untraced unit and one unit with the
per-layer ledger installed, and prints the ledger and its per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero when any output check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "chrome_ops_per_s": "1/s",
    "lru_ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "speedup_vs_lru": "ratio",
    "miss_ratio_vs_lru": "ratio",
    "served_fraction": "ratio",
}

#: per-layer metrics: name -> (unit, how it is read).  ``("calls", L)`` and
#: ``("self_s", L)`` come from the ledger row of layer L, ``("layer", k)``
#: from the traced unit's outputs, ``("counter", a, b)`` is the ratio of
#: two ledger counters.
PER_LAYER: Dict[str, Tuple[str, tuple]] = {
    "sim.multicore.self_s": ("s", ("self_s", "sim.multicore")),
    "sim.cache.policy_calls": ("count", ("calls", "sim.cache")),
    "sim.cache.policy_self_s": ("s", ("self_s", "sim.cache")),
    "sim.llc.bypass_fraction": ("ratio", ("layer", "sim.llc.bypass_fraction")),
    "sim.dram.calls": ("count", ("calls", "sim.dram")),
    "sim.dram.self_s": ("s", ("self_s", "sim.dram")),
    "sim.dram.row_hit_rate": ("ratio", ("layer", "sim.dram.row_hit_rate")),
    "sim.camat.epochs": ("count", ("layer", "sim.camat.epochs")),
    "sim.camat.self_s": ("s", ("self_s", "sim.camat")),
    "sim.camat.obstructed_epoch_fraction": (
        "ratio", ("layer", "sim.camat.obstructed_epoch_fraction")),
    "core.features.calls": ("count", ("calls", "core.features")),
    "core.features.self_s": ("s", ("self_s", "core.features")),
    "env.driver.decisions": ("count", ("calls", "env.driver")),
    "env.driver.self_s": ("s", ("self_s", "env.driver")),
    "env.driver.exploration_fraction": (
        "ratio", ("layer", "env.driver.exploration_fraction")),
    "core.qtable.calls": ("count", ("calls", "core.qtable")),
    "core.qtable.self_s": ("s", ("self_s", "core.qtable")),
    "core.qtable.calls_per_decision": ("ratio", ("per_call", "core.qtable", "env.driver")),
    "core.eq.calls": ("count", ("calls", "core.eq")),
    "core.eq.self_s": ("s", ("self_s", "core.eq")),
    "core.eq.reward_match_ratio": ("ratio", ("layer", "core.eq.reward_match_ratio")),
    "serve.driver.self_s": ("s", ("self_s", "serve.driver")),
    "serve.service.calls": ("count", ("calls", "serve.service")),
    "serve.service.self_s": ("s", ("self_s", "serve.service")),
    "serve.store.calls": ("count", ("calls", "serve.store")),
    "serve.store.self_s": ("s", ("self_s", "serve.store")),
    "serve.store.forced_bypass_byte_share": (
        "ratio", ("counter", "store.forced_bypass_bytes", "store.requested_bytes")),
    "serve.store.evictions_per_request": (
        "ratio", ("layer", "serve.store.evictions_per_request")),
    "serve.policies.calls": ("count", ("calls", "serve.policies")),
    "serve.policies.self_s": ("s", ("self_s", "serve.policies")),
    "serve.backend.calls": ("count", ("calls", "serve.backend")),
    "serve.backend.self_s": ("s", ("self_s", "serve.backend")),
    "serve.metrics.self_s": ("s", ("self_s", "serve.metrics")),
    "cluster.ring.self_s": ("s", ("self_s", "cluster.ring")),
    "cluster.federate.calls": ("count", ("calls", "cluster.federate")),
    "cluster.federate.self_s": ("s", ("self_s", "cluster.federate")),
    "cluster.hotkeys.self_s": ("s", ("self_s", "cluster.hotkeys")),
    "cluster.hot_split_fraction": ("ratio", ("layer", "cluster.hot_split_fraction")),
    "serve.faults.self_s": ("s", ("self_s", "serve.faults")),
    "serve.resilience.self_s": ("s", ("self_s", "serve.resilience")),
    "serve.resilience.retries_per_miss": (
        "ratio", ("layer", "serve.resilience.retries_per_miss")),
    "serve.resilience.stale_fraction": (
        "ratio", ("layer", "serve.resilience.stale_fraction")),
    "ops.controller.self_s": ("s", ("self_s", "ops.controller")),
    "ops.shadow.self_s": ("s", ("self_s", "ops.shadow")),
    "ops.snapshots": ("count", ("layer", "ops.snapshots")),
    "ops.trips": ("count", ("layer", "ops.trips")),
    "traces.build_s": ("s", ("self_s", "traces")),
    "serve.workloads.build_s": ("s", ("self_s", "serve.workloads")),
}

#: the paper's Fig. 10 heterogeneous 4-core geomean speed-up over LRU,
#: printed beside sim_hetero4's for context; the simulator is not
#: validated against hardware, so the two are not compared as an error
PAPER_FIG10_HETERO_SPEEDUP = 1.096

#: set-ups timed per run at least, however few units fit
MIN_SETUPS = 3

#: the ledger accounts for the traced wall time up to float rounding
ACCOUNTING_TOLERANCE_S = 1e-6


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float) -> Tuple[dict, List[str], int, int]:
    """Repeat the unit while another fits in ``seconds``; report medians.

    Set-up is timed on every unit and, when fewer than
    :data:`MIN_SETUPS` units fit, repeated on its own until it has been
    timed that often, so ``setup_s`` is always a median of several.
    """
    from perfbench.workloads import prepare

    setups, outcomes = [], []
    start = time.perf_counter()
    while True:
        prepared = prepare(workload, seed)
        setups.append(prepared.setup_s)
        outcomes.append(prepared.run())
        del prepared
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(outcomes) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(prepare(workload, seed).setup_s)
    first = outcomes[0]
    for i, o in enumerate(outcomes[1:], start=2):
        if o.digest != first.digest:
            o.failures.append(f"unit {i} outputs differ from unit 1 at the same seed")
    failures = [f for o in outcomes for f in o.failures]
    print(f"units: {len(outcomes)}, set-ups: {len(setups)}, "
          f"in {time.perf_counter() - start:.2f} s")
    values = {
        "setup_s": statistics.median(setups),
        "chrome_ops_per_s": statistics.median(o.ops_per_s("chrome") for o in outcomes),
        "lru_ops_per_s": statistics.median(o.ops_per_s("lru") for o in outcomes),
        "peak_rss_mb": _peak_rss_mb(),
        **first.quality,
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, failures, len(outcomes), sum(bool(o.failures) for o in outcomes)


def _per_layer_value(how: tuple, report, outcome) -> float:
    kind = how[0]
    if kind == "calls":
        return report.calls(how[1])
    if kind == "self_s":
        return report.self_s(how[1])
    if kind == "layer":
        return outcome.layer.get(how[1], 0)
    if kind == "per_call":
        decisions = report.calls(how[2])
        return report.calls(how[1]) / decisions if decisions else 0.0
    if kind == "counter":
        den = report.counters.get(how[2], 0)
        return report.counters.get(how[1], 0) / den if den else 0.0
    raise ValueError(f"unknown per-layer source {how!r}")


def print_ledger(report) -> None:
    wall = report.wall_s
    print(f"{'layer':<20} {'calls':>10} {'incl_s':>10} {'self_s':>10} {'share':>7}")
    rows = sorted(report.layers.items(), key=lambda kv: -kv[1].self_s)
    for name, stats in rows:
        if stats.calls:
            print(
                f"{name:<20} {stats.calls:>10} {stats.inclusive_s:>10.4f} "
                f"{stats.self_s:>10.4f} {stats.self_s / wall:>7.1%}"
            )
    for name, value in (
        ("wrapper overhead", report.wrapper_overhead_s),
        ("unattributed", report.unattributed_s),
        ("traced wall", wall),
    ):
        print(f"{name:<20} {'':>10} {'':>10} {value:>10.4f} {value / wall:>7.1%}")


def trace(workload: str, seed: int) -> Tuple[dict, List[str], int, int]:
    """One untraced and one traced unit; the per-layer ledger."""
    from perfbench.ledger import Ledger, calibrate
    from perfbench.workloads import prepare

    cost = calibrate()
    t0 = time.perf_counter()
    untraced = prepare(workload, seed).run()
    untraced_s = time.perf_counter() - t0
    ledger = Ledger(per_call_cost_s=cost)
    with ledger.installed():
        traced = prepare(workload, seed, span=ledger.span).run()
    report = ledger.report()
    if traced.digest != untraced.digest:
        traced.failures.append("traced outputs differ from the untraced run")
    if abs(report.accounted_s() - report.wall_s) > ACCOUNTING_TOLERANCE_S:
        traced.failures.append(
            f"ledger accounts for {report.accounted_s():.6f} s of "
            f"{report.wall_s:.6f} s traced wall time"
        )
    failures = untraced.failures + traced.failures
    print(f"wrapper cost per call: {cost * 1e9:.1f} ns")
    print_ledger(report)
    metrics = {
        name: _metric(_per_layer_value(how, report, traced), unit)
        for name, (unit, how) in PER_LAYER.items()
    }
    metrics["trace.overhead_fraction"] = _metric(
        report.wall_s / untraced_s - 1.0, "ratio"
    )
    return metrics, failures, 2, bool(untraced.failures) + bool(traced.failures)


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        metrics, failures, attempted, failed = trace(args.workload, args.seed)
    else:
        metrics, failures, attempted, failed = measure(
            args.workload, args.seed, args.seconds
        )
    for name, m in metrics.items():
        print(f"{name:<38} {m['value']:>16.6g} {m['unit']}")
    if args.workload == "sim_hetero4" and not args.trace:
        print(f"(context: paper Fig. 10 heterogeneous geomean speed-up "
              f"{PAPER_FIG10_HETERO_SPEEDUP})")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program's sources are missing: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
