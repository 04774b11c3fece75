"""The benchmark's three workloads, each one unit of LRU-vs-CHROME work.

A workload *instance* builds its inputs from one seed (the set-up,
returned as a :class:`Prepared`), then runs them under LRU and under
CHROME through the program's public entry points, checks the outputs,
and returns an :class:`Outcome`.  A benchmark *unit* (:func:`prepare`)
is :data:`INSTANCES` instances at seeds derived from the benchmark seed,
combined the way the paper aggregates mixes.  Every unit of a workload at
one seed produces the same simulated and virtual results; only host
times vary.

* ``sim_hetero4`` — one heterogeneous 4-core mix at the
  :class:`ExperimentScale` defaults, the unit every paper figure is
  summed from.  The only workload that runs the L1→L2→LLC→DRAM walk,
  the core scheduler and C-AMAT.
* ``serve_zipf`` — the ``zipf_scan`` stream through ``run_configured``
  at the serve experiments' geometry (16 MiB, 128 segments).  The
  object store, the asyncio driver and the serve agent do the work.
* ``fleet_chaos`` — the ``multitenant`` stream through
  ``run_cluster_ops``: 4 shards of 16 MiB, replication 2, federation,
  hot-key splitting, shard 2 killed and healed, the ``serve_faults``
  origin fault model behind the resilient configuration, and an ops
  controller with an LRU shadow, a snapshot ring and an armed byte-hit
  guardrail.  The only workload that runs ``cluster``, ``serve.faults``
  / ``serve.resilience`` and ``ops``.  The same fleet with LRU on every
  shard (no snapshots: LRU has no learned state) is the LRU side.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, ContextManager, Dict, List

from repro.cluster.experiments import (
    KILLED_SHARD,
    NUM_SHARDS,
    REPLICATION,
    kill_fault_params,
)
from repro.experiments.metrics import geometric_mean, weighted_speedup
from repro.experiments.runner import ExperimentScale, resolve_policy
from repro.ops.config import OpsConfig
from repro.ops.controller import run_cluster_ops
from repro.ops.experiments import (
    MIN_BYTE_HIT_EWMA,
    SNAPSHOT_EVERY,
    TRIP_AFTER,
    WARMUP_WINDOWS,
    ops_window,
)
from repro.serve.config import (
    ServiceConfig,
    build_fault_config,
    build_resilience_config,
)
from repro.serve.experiments import (
    NUM_SEGMENTS,
    chaos_fault_params,
    resilient_params,
    serve_capacity,
)
from repro.serve.faults import FaultConfig
from repro.serve.service import run_configured
from repro.serve.workloads import build_workload
from repro.sim.multicore import MultiCoreSystem, SystemConfig
from repro.traces.mixes import heterogeneous_mix
from repro.traces.trace import Trace

from .checks import check_fleet, check_ops, check_serve, check_sim

#: the heterogeneous 4-core mix of sim_hetero4
SIM_MIX = ("mcf06", "libquantum06", "lbm17", "omnetpp17")

POLICIES = ("lru", "chrome")

#: instances per unit.  One short instance's simulated figures move a
#: lot with its seed (the trace phases and request mixes are drawn from
#: it); three instances per unit keep a run's figures steady across
#: seeds, the way the paper's figures average over many mixes.
INSTANCES = 3

#: per-layer entries that are counts: summed over instances, not averaged
_COUNT_KEYS = frozenset({"sim.camat.epochs", "ops.snapshots", "ops.trips"})

SpanFactory = Callable[[str], ContextManager[None]]


def no_span(_layer: str) -> ContextManager[None]:
    return contextlib.nullcontext()


@dataclass
class Outcome:
    """One instance or unit: the same inputs under LRU and under CHROME."""

    #: host seconds of each policy's run
    run_s: Dict[str, float]
    #: simulated accesses (warmup included) or requests per policy run
    ops_per_run: int
    #: end-to-end simulated/virtual metrics
    quality: Dict[str, float]
    #: per-layer ratios and counts read from the outputs
    layer: Dict[str, float]
    failures: List[str] = field(default_factory=list)
    #: sha256 over every simulated/virtual output of the unit
    digest: str = ""

    def ops_per_s(self, policy: str) -> float:
        return self.ops_per_run / self.run_s[policy]


@dataclass
class Prepared:
    """A unit after set-up: ``run()`` performs and checks the runs."""

    setup_s: float
    run: Callable[[], Outcome]


def _digest(*results) -> str:
    return hashlib.sha256(repr(results).encode()).hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _agent_ratios(telemetries, sampled_key: str) -> Dict[str, float]:
    decisions = sum(t.get("decisions", 0) for t in telemetries)
    explorations = sum(t.get("explorations", 0) for t in telemetries)
    matches = sum(t.get("eq_reward_matches", 0) for t in telemetries)
    sampled = sum(t.get(sampled_key, 0) for t in telemetries)
    return {
        "env.driver.exploration_fraction": _ratio(explorations, decisions),
        "core.eq.reward_match_ratio": _ratio(matches, sampled),
    }


# --- sim_hetero4 -----------------------------------------------------------------


def sim_hetero4(
    seed: int, scale: ExperimentScale = ExperimentScale(), span: SpanFactory = no_span
) -> Prepared:
    warmup = scale.warmup_per_core
    total = scale.accesses_per_core + warmup
    t0 = time.perf_counter()
    with span("traces"):
        traces = [
            Trace(t.name, records=list(t))
            for t in heterogeneous_mix(
                SIM_MIX, total, seed=seed, scale=scale.machine_scale
            )
        ]
    # Built the way Runner.run builds them: resolve_policy scales the
    # sampled-set count with the machine.
    systems = {
        policy: MultiCoreSystem(
            SystemConfig(num_cores=len(traces), scale=scale.machine_scale),
            llc_policy=resolve_policy(policy, scale.machine_scale),
        )
        for policy in POLICIES
    }
    return Prepared(
        time.perf_counter() - t0, lambda: _run_sim(traces, systems, scale)
    )


def _run_sim(traces, systems, scale: ExperimentScale) -> Outcome:
    warmup = scale.warmup_per_core
    total = scale.accesses_per_core + warmup
    results, run_s = {}, {}
    for policy in POLICIES:
        t0 = time.perf_counter()
        results[policy] = systems[policy].run(
            traces, max_accesses_per_core=total, warmup_accesses=warmup
        )
        run_s[policy] = time.perf_counter() - t0

    budgets = [sum(r.gap + 1 for r in t.records[warmup:total]) for t in traces]
    failures = []
    for policy in POLICIES:
        failures += check_sim(results[policy], budgets, f"sim {policy}")
    lru, chrome = results["lru"], results["chrome"]
    cores_done = sum(
        core.instructions == budget
        for policy in POLICIES
        for core, budget in zip(results[policy].cores, budgets)
    )
    mgmt = chrome.llc_mgmt
    obstructed = chrome.camat_summary["per_core_obstructed_epoch_fraction"]
    layer = {
        "sim.llc.bypass_fraction": _ratio(mgmt.bypasses, mgmt.incoming_blocks),
        "sim.dram.row_hit_rate": systems["chrome"].dram.row_hit_rate,
        "sim.camat.epochs": sum(s.camat.epochs_closed for s in systems.values()),
        "sim.camat.obstructed_epoch_fraction": sum(obstructed) / len(obstructed),
        **_agent_ratios(
            [chrome.extra.get("policy_telemetry", {})], "sampled_accesses"
        ),
    }
    return Outcome(
        run_s=run_s,
        ops_per_run=total * len(traces),
        quality={
            "speedup_vs_lru": weighted_speedup(chrome.ipcs, lru.ipcs),
            "miss_ratio_vs_lru": _ratio(
                chrome.llc_stats.demand_miss_ratio, lru.llc_stats.demand_miss_ratio
            ),
            "served_fraction": cores_done / (len(POLICIES) * len(traces)),
        },
        layer=layer,
        failures=failures,
        digest=_digest(lru, chrome),
    )


# --- serve_zipf ------------------------------------------------------------------


def _serve_failed(m, unroutable: int = 0) -> float:
    return _ratio(m.errors + m.shed + unroutable, m.requests + unroutable)


def _serve_ratios(m) -> Dict[str, float]:
    return {
        "serve.store.evictions_per_request": _ratio(m.evictions, m.requests),
        "serve.resilience.retries_per_miss": _ratio(m.retries, m.requests - m.hits),
        "serve.resilience.stale_fraction": _ratio(m.stale_served, m.requests),
    }


def serve_zipf(
    seed: int, scale: ExperimentScale = ExperimentScale(), span: SpanFactory = no_span
) -> Prepared:
    total = scale.accesses_per_core + scale.warmup_per_core
    t0 = time.perf_counter()
    with span("serve.workloads"):
        requests = build_workload("zipf_scan", total, seed=seed)
    configs = {
        policy: ServiceConfig(
            capacity_bytes=serve_capacity(scale),
            num_segments=NUM_SEGMENTS,
            policy=policy,
            warmup_requests=scale.warmup_per_core,
            seed=seed,
            workload_name="zipf_scan",
        )
        for policy in POLICIES
    }
    built = {policy: config.build_policy() for policy, config in configs.items()}
    return Prepared(
        time.perf_counter() - t0,
        lambda: _run_serve(requests, configs, built, scale, span),
    )


def _run_serve(requests, configs, built, scale, span) -> Outcome:
    metrics, run_s = {}, {}
    for policy in POLICIES:
        t0 = time.perf_counter()
        with span("serve.driver"):
            metrics[policy] = run_configured(
                requests, configs[policy], policy=built[policy]
            )
        run_s[policy] = time.perf_counter() - t0

    failures = []
    for policy in POLICIES:
        failures += check_serve(
            metrics[policy], scale.accesses_per_core, f"serve {policy}"
        )
    lru, chrome = metrics["lru"], metrics["chrome"]
    layer = {
        **_serve_ratios(chrome),
        **_agent_ratios([chrome.telemetry], "sampled_requests"),
    }
    return Outcome(
        run_s=run_s,
        ops_per_run=len(requests),
        quality={
            "speedup_vs_lru": _ratio(lru.mean_latency_ms, chrome.mean_latency_ms),
            "miss_ratio_vs_lru": _ratio(
                1.0 - chrome.byte_hit_ratio, 1.0 - lru.byte_hit_ratio
            ),
            "served_fraction": 1.0 - _serve_failed(chrome),
        },
        layer=layer,
        failures=failures,
        digest=_digest(lru, chrome),
    )


# --- fleet_chaos -----------------------------------------------------------------


def fleet_chaos(
    seed: int,
    scale: ExperimentScale = ExperimentScale(),
    span: SpanFactory = no_span,
    *,
    federate: bool = True,
    kill: bool = True,
) -> Prepared:
    """``federate``/``kill`` exist so tests can show the fleet check trips."""
    n = scale.accesses_per_core
    total = n + scale.warmup_per_core
    t0 = time.perf_counter()
    with span("serve.workloads"):
        requests = build_workload("multitenant", total, seed=seed)
    # Each shard holds the serve geometry, so every segment fits the
    # largest object and no request is a forced bypass.
    configs = {
        policy: ServiceConfig(
            capacity_bytes=NUM_SHARDS * serve_capacity(scale),
            num_segments=NUM_SEGMENTS,
            policy=policy,
            warmup_requests=scale.warmup_per_core,
            seed=seed,
            workload_name="multitenant",
            faults=replace(build_fault_config(chaos_fault_params(scale)), seed=seed),
            resilience=build_resilience_config(resilient_params(scale)),
        )
        for policy in POLICIES
    }
    guarded = OpsConfig(
        window=ops_window(scale),
        challenger_policy="lru",
        min_byte_hit_ewma=MIN_BYTE_HIT_EWMA,
        trip_after=TRIP_AFTER,
        warmup_windows=WARMUP_WINDOWS,
        snapshot_every=SNAPSHOT_EVERY,
    )
    ops = {"chrome": guarded, "lru": replace(guarded, snapshot_every=0)}
    kill_faults = (
        FaultConfig(**dict(kill_fault_params(scale, seed=seed))) if kill else None
    )

    def run_cluster(policy: str):
        return run_cluster_ops(
            requests,
            configs[policy],
            NUM_SHARDS,
            ops[policy],
            replication=REPLICATION,
            federate_every=max(1, n // 8) if federate else 0,
            hotkey_window=max(256, n // 16),
            kill_shard=KILLED_SHARD if kill else -1,
            kill_faults=kill_faults,
        )

    return Prepared(
        time.perf_counter() - t0,
        lambda: _run_fleet(run_cluster, len(requests), n, span),
    )


def _run_fleet(run_cluster, total: int, n: int, span) -> Outcome:
    results, run_s = {}, {}
    for policy in ("chrome", "lru"):
        t0 = time.perf_counter()
        with span("serve.driver"):
            results[policy] = run_cluster(policy)
        run_s[policy] = time.perf_counter() - t0

    failures = []
    for policy in POLICIES:
        result = results[policy]
        failures += [
            f"{policy} {failure}"
            for failure in check_fleet(
                result.champion, total, n, federated=policy == "chrome"
            )
            + check_ops(result, expect_snapshots=policy == "chrome")
        ]
    chrome_ops = results["chrome"]
    cm = chrome_ops.champion
    fleet, lru_fleet = cm.fleet, results["lru"].champion.fleet
    layer = {
        **_serve_ratios(fleet),
        "cluster.hot_split_fraction": _ratio(cm.hot_splits, sum(cm.routed)),
        "ops.snapshots": chrome_ops.snapshots,
        "ops.trips": chrome_ops.trips,
        **_agent_ratios([m.telemetry for m in cm.per_shard], "sampled_requests"),
    }
    return Outcome(
        run_s=run_s,
        ops_per_run=total,
        quality={
            "speedup_vs_lru": _ratio(
                lru_fleet.mean_latency_ms, fleet.mean_latency_ms
            ),
            "miss_ratio_vs_lru": _ratio(
                1.0 - fleet.byte_hit_ratio, 1.0 - lru_fleet.byte_hit_ratio
            ),
            "served_fraction": 1.0 - _serve_failed(fleet, cm.unroutable),
        },
        layer=layer,
        failures=failures,
        digest=_digest(chrome_ops, results["lru"]),
    )


WORKLOADS = {
    "sim_hetero4": sim_hetero4,
    "serve_zipf": serve_zipf,
    "fleet_chaos": fleet_chaos,
}


def instance_seeds(seed: int) -> List[int]:
    """The instance seeds of a unit; distinct benchmark seeds never share one."""
    return [seed * INSTANCES + i for i in range(INSTANCES)]


def combine(outcomes: List[Outcome]) -> Outcome:
    """One unit from its instances: times and work add up, figures
    normalized to LRU take a geometric mean (as the paper's do), other
    ratios a mean."""
    n = len(outcomes)
    return Outcome(
        run_s={p: sum(o.run_s[p] for o in outcomes) for p in POLICIES},
        ops_per_run=sum(o.ops_per_run for o in outcomes),
        quality={
            **{
                key: geometric_mean([o.quality[key] for o in outcomes])
                for key in ("speedup_vs_lru", "miss_ratio_vs_lru")
            },
            "served_fraction": sum(o.quality["served_fraction"] for o in outcomes) / n,
        },
        layer={
            key: sum(o.layer[key] for o in outcomes) / (1 if key in _COUNT_KEYS else n)
            for key in outcomes[0].layer
        },
        failures=[f for o in outcomes for f in o.failures],
        digest=hashlib.sha256("".join(o.digest for o in outcomes).encode()).hexdigest(),
    )


def prepare(workload: str, seed: int, span: SpanFactory = no_span) -> Prepared:
    """Set up one unit of ``workload`` at benchmark seed ``seed``."""
    parts = [WORKLOADS[workload](s, span=span) for s in instance_seeds(seed)]
    return Prepared(
        sum(p.setup_s for p in parts), lambda: combine([p.run() for p in parts])
    )
