"""Golden determinism guard for the simulator hot path.

The hot-path overhaul (inlined access walk, heap scheduler, fused
Q-table reads, specialized LRU fills) is only legal because it is
*behavior-preserving*: every optimization must leave the simulated
machine bit-identical — same hit/miss sequences, same float
accumulation order, same RNG draws.  This test pins that property by
running fixed-seed workloads and comparing every statistic the
simulator reports (floats via ``repr``, so equality is byte-exact)
against committed golden values.

If a change *intentionally* alters simulated behavior, regenerate the
goldens and explain the diff in the commit message::

    PYTHONPATH=src python tests/test_golden_determinism.py --regenerate

An unexplained diff here means a "pure performance" change was not
actually behavior-preserving.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.chrome import ChromePolicy
from repro.env import env_job
from repro.sim.multicore import MultiCoreSystem, SystemConfig
from repro.sim.replacement.lru import LRUPolicy
from repro.traces.mixes import heterogeneous_mix, homogeneous_mix

GOLDEN_PATH = Path(__file__).parent / "golden" / "determinism.json"
SERVE_GOLDEN_PATH = Path(__file__).parent / "golden" / "serve_determinism.json"
SERVE_FAULTS_GOLDEN_PATH = (
    Path(__file__).parent / "golden" / "serve_faults_determinism.json"
)
CLUSTER_GOLDEN_PATH = (
    Path(__file__).parent / "golden" / "cluster_determinism.json"
)
OPS_GOLDEN_PATH = Path(__file__).parent / "golden" / "ops_determinism.json"
WORKLOADS_GOLDEN_PATH = (
    Path(__file__).parent / "golden" / "workloads_determinism.json"
)

# Small machine (1/64 of Table V) so the whole suite runs in seconds;
# the capacity ratios the policies react to are preserved.
SCALE = 1 / 64


def _cache_stats(stats) -> dict:
    return {
        "name": stats.name,
        "demand_hits": stats.demand_hits,
        "demand_misses": stats.demand_misses,
        "prefetch_hits": stats.prefetch_hits,
        "prefetch_misses": stats.prefetch_misses,
        "writeback_hits": stats.writeback_hits,
        "writeback_misses": stats.writeback_misses,
        "evictions": stats.evictions,
        "writebacks_out": stats.writebacks_out,
    }


def _system_stats(system: MultiCoreSystem, result) -> dict:
    """Every stat the simulator reports, floats repr'd for exactness."""
    mgmt = result.llc_mgmt
    out = {
        "policy": result.policy_name,
        "ipcs": [repr(c.ipc) for c in result.cores],
        "instructions": [c.instructions for c in result.cores],
        "cycles": [repr(c.cycles) for c in result.cores],
        "llc": _cache_stats(result.llc_stats),
        "l1": [_cache_stats(h.l1.stats) for h in system.cores],
        "l2": [_cache_stats(h.l2.stats) for h in system.cores],
        "mgmt": {
            "fills": mgmt.fills,
            "prefetch_fills": mgmt.prefetch_fills,
            "prefetch_fill_hits": mgmt.prefetch_fill_hits,
            "bypasses": mgmt.bypasses,
            "incoming_blocks": mgmt.incoming_blocks,
            "evicted_unused": mgmt.evicted_unused,
            "evicted_used": mgmt.evicted_used,
            "evicted_unused_prefetch": mgmt.evicted_unused_prefetch,
            "unused_requested_again": mgmt.unused_requested_again,
            "bypass_mistakes": mgmt.bypass_mistakes,
        },
        "camat": {k: repr(v) for k, v in sorted(result.camat_summary.items())},
        "prefetcher_accuracy": repr(result.prefetcher_accuracy),
        "prefetch_drops": [h.prefetch_drops for h in system.cores],
        "prefetch_filtered": [h.prefetch_filtered for h in system.cores],
        "mshr": {
            "llc_merges": system.llc.mshr.merges,
            "llc_stalls": system.llc.mshr.stalls,
            "l1_merges": [h.l1.mshr.merges for h in system.cores],
            "l2_merges": [h.l2.mshr.merges for h in system.cores],
        },
    }
    if "policy_telemetry" in result.extra:
        out["telemetry"] = {
            k: repr(v) for k, v in sorted(result.extra["policy_telemetry"].items())
        }
    return out


def _run_case(policy_factory, traces, cores, warmup=0, cap=None) -> dict:
    system = MultiCoreSystem(
        SystemConfig(num_cores=cores, scale=SCALE), llc_policy=policy_factory()
    )
    result = system.run(traces, warmup_accesses=warmup, max_accesses_per_core=cap)
    return _system_stats(system, result)


def compute_golden() -> dict:
    """The five pinned workloads (shared by the test and --regenerate)."""
    mix2 = lambda: heterogeneous_mix(
        ["mcf06", "libquantum06"], 1500, seed=7, scale=SCALE
    )
    mix16 = lambda: homogeneous_mix("mcf06", 16, 250, seed=3, scale=SCALE)
    # GAP graphs are seeded per dataset; this case pins that the seeding
    # is stable across processes and hash seeds.
    gap2 = lambda: heterogeneous_mix(
        ["sssp-tw", "bfs-or"], 6000, seed=5, scale=SCALE
    )
    return {
        "lru_2core": _run_case(LRUPolicy, mix2(), 2, warmup=400),
        "chrome_2core": _run_case(ChromePolicy, mix2(), 2, warmup=400),
        "lru_16core": _run_case(LRUPolicy, mix16(), 16),
        "chrome_16core_capped": _run_case(
            ChromePolicy, mix16(), 16, warmup=60, cap=200
        ),
        "chrome_gap_2core": _run_case(ChromePolicy, gap2(), 2, warmup=1200),
    }


def _serve_stats(metrics) -> dict:
    """Every stat a serve run reports, floats repr'd for exactness."""
    return {
        "policy": metrics.policy,
        "workload": metrics.workload,
        "requests": metrics.requests,
        "hits": metrics.hits,
        "bytes_requested": metrics.bytes_requested,
        "bytes_hit": metrics.bytes_hit,
        "backend_fetches": metrics.backend_fetches,
        "backend_bytes": metrics.backend_bytes,
        "admitted": metrics.admitted,
        "admitted_bytes": metrics.admitted_bytes,
        "bypassed": metrics.bypassed,
        "bypassed_bytes": metrics.bypassed_bytes,
        "evictions": metrics.evictions,
        "evicted_bytes": metrics.evicted_bytes,
        "peak_outstanding": metrics.peak_outstanding,
        "mean_latency_ms": repr(metrics.mean_latency_ms),
        "p50_latency_ms": repr(metrics.p50_latency_ms),
        "p99_latency_ms": repr(metrics.p99_latency_ms),
        "per_tenant": {
            str(t): [tm.requests, tm.hits, tm.bytes_requested, tm.bytes_hit]
            for t, tm in sorted(metrics.per_tenant.items())
        },
        "curve": [[n, repr(ohr), repr(bhr)] for n, ohr, bhr in metrics.curve],
        "telemetry": {k: repr(v) for k, v in sorted(metrics.telemetry.items())},
    }


def _serve_case(workload: str, policy: str) -> dict:
    job = env_job(
        "serve",
        workload=workload,
        policy=policy,
        num_requests=1200,
        warmup_requests=200,
        capacity_bytes=2 << 20,
        num_segments=64,
        num_clients=5,
        seed=17,
        checkpoint_every=400,
    )
    return _serve_stats(job.execute())


def compute_serve_golden() -> dict:
    """Fixed-seed serve runs pinning the serving layer's behavior.

    Covers both learned and classic policies, the multi-tenant
    accounting, and the hit-ratio curve — through the *concurrent*
    driver (num_clients=5), so the golden also pins the sequenced-
    asyncio path.
    """
    return {
        "lru_zipf_scan": _serve_case("zipf_scan", "lru"),
        "chrome_zipf_scan": _serve_case("zipf_scan", "chrome"),
        "chrome_multitenant": _serve_case("multitenant", "chrome"),
        "s3fifo_phases": _serve_case("phases", "s3fifo"),
        "chrome_proxy_burst": _serve_case("proxy_burst", "chrome"),
        "gdsf_retrieval": _serve_case("retrieval", "gdsf"),
        "lru_storage_tier": _serve_case("storage_tier", "lru"),
    }


#: generators pinned request-by-request (the serve cases above pin
#: end-to-end store behavior; these pin the raw streams themselves)
_WORKLOAD_GOLDEN_NAMES = ("proxy_burst", "retrieval", "storage_tier")
_WORKLOAD_GOLDEN_SEED = 11
_WORKLOAD_GOLDEN_REQUESTS = 4000
_WORKLOAD_GOLDEN_PREFIX = 64


def compute_workloads_golden() -> dict:
    """Request-stream pins for the atlas generators.

    Each case records the first N ``[key, size, tenant, is_refresh]``
    tuples verbatim plus whole-stream aggregates (length, distinct
    keys, total bytes, an order-sensitive checksum), so any change to a
    generator's RNG discipline — not just its first few draws — trips
    the pin.
    """
    from repro.serve.workloads import build_workload

    out = {}
    for name in _WORKLOAD_GOLDEN_NAMES:
        stream = build_workload(
            name, _WORKLOAD_GOLDEN_REQUESTS, seed=_WORKLOAD_GOLDEN_SEED
        )
        checksum = 0
        for position, r in enumerate(stream):
            checksum = (
                checksum * 1000003 + r.key * 31 + r.size * 7 + position
            ) % (1 << 61)
        out[name] = {
            "prefix": [
                [r.key, r.size, r.tenant, r.is_refresh]
                for r in stream[:_WORKLOAD_GOLDEN_PREFIX]
            ],
            "requests": len(stream),
            "distinct_keys": len({r.key for r in stream}),
            "total_bytes": sum(r.size for r in stream),
            "checksum": checksum,
        }
    return out


def _serve_fault_stats(metrics) -> dict:
    """The serve stats plus every degradation counter the chaos path adds."""
    out = _serve_stats(metrics)
    out.update(
        {
            "origin_served": metrics.origin_served,
            "shed": metrics.shed,
            "stale_served": metrics.stale_served,
            "errors": metrics.errors,
            "retries": metrics.retries,
            "timeouts": metrics.timeouts,
            "breaker_opens": metrics.breaker_opens,
            "breaker_denied": metrics.breaker_denied,
            "degraded_requests": metrics.degraded_requests,
            "degraded_p99_latency_ms": repr(metrics.degraded_p99_latency_ms),
        }
    )
    return out


#: pinned chaos fault model (literal, independent of experiment tuning:
#: the golden pins *code* behavior, not serve_faults parameter choices)
_GOLDEN_FAULTS = (
    ("seed", 1),
    ("error_rate", 0.01),
    ("spike_rate", 0.02),
    ("spike_multiplier", 8.0),
    ("burst_every_ms", 175.0),
    ("burst_duration_ms", 25.0),
    ("outage_every_ms", 230.0),
    ("outage_duration_ms", 60.0),
    ("recovery_ramp_ms", 30.0),
    ("recovery_multiplier", 4.0),
)

_GOLDEN_BROWNOUT_FAULTS = _GOLDEN_FAULTS + (
    ("brownout_tenant", 1),
    ("brownout_every_ms", 200.0),
    ("brownout_duration_ms", 50.0),
)

_GOLDEN_RESILIENCE = (
    ("timeout_ms", 30.0),
    ("shed_outstanding", 128),
    ("breaker_open_ms", 6.0),
)


def _serve_faults_case(
    workload: str,
    policy: str,
    fault_params: tuple,
    resilience_params: tuple,
) -> dict:
    job = env_job(
        "serve",
        workload=workload,
        policy=policy,
        num_requests=1200,
        warmup_requests=200,
        capacity_bytes=2 << 20,
        num_segments=64,
        num_clients=5,
        seed=17,
        checkpoint_every=400,
        fault_params=fault_params,
        resilience_params=resilience_params,
    )
    return _serve_fault_stats(job.execute())


def compute_serve_faults_golden() -> dict:
    """Fixed-seed chaos runs pinning fault injection + degradation.

    Covers the naive control (retries/breaker/stale all off), the full
    resilient pipeline, and a per-tenant brownout with stale serving —
    again through the concurrent driver (num_clients=5), so the golden
    pins that chaos decisions survive the sequenced-asyncio path.
    """
    return {
        "lru_naive_outages": _serve_faults_case(
            "zipf_scan", "lru", _GOLDEN_FAULTS, (("preset", "none"),)
        ),
        "chrome_resilient_outages": _serve_faults_case(
            "zipf_scan", "chrome", _GOLDEN_FAULTS, _GOLDEN_RESILIENCE
        ),
        "lru_resilient_brownout": _serve_faults_case(
            "multitenant", "lru", _GOLDEN_BROWNOUT_FAULTS, _GOLDEN_RESILIENCE
        ),
    }


#: pinned shard-kill model: one outage window taking a shard down for a
#: quarter of the 1400-request (700 virtual ms) golden runs
_GOLDEN_KILL_FAULTS = (
    ("seed", 3),
    ("outage_every_ms", 700.0),
    ("outage_duration_ms", 175.0),
)


def _cluster_stats(metrics) -> dict:
    """Fleet + ring accounting, floats repr'd for exactness."""
    return {
        "fleet": _serve_fault_stats(metrics.fleet),
        "per_shard": [_serve_fault_stats(m) for m in metrics.per_shard],
        "routed": list(metrics.routed),
        "reroutes": metrics.reroutes,
        "unroutable": metrics.unroutable,
        "ring_changes": metrics.ring_changes,
        "federations": metrics.federations,
        "hot_windows": metrics.hot_windows,
        "hot_promotions": metrics.hot_promotions,
        "hot_splits": metrics.hot_splits,
        "hot_evictions": metrics.hot_evictions,
    }


def _cluster_case(policy: str, **overrides) -> dict:
    spec = dict(
        workload="zipf_scan",
        policy=policy,
        num_requests=1200,
        warmup_requests=200,
        capacity_bytes=4 << 20,
        num_segments=64,
        num_shards=4,
        replication=2,
        num_clients=5,
        seed=17,
        checkpoint_every=400,
        federate_every=400,
        hotkey_window=256,
    )
    spec.update(overrides)
    return _cluster_stats(env_job("cluster", **spec).execute())


def compute_cluster_golden() -> dict:
    """Fixed-seed fleet runs pinning the cluster layer's behavior.

    The deterministic-failover guarantee is the headline pin:
    ``chrome_federated_killshard`` kills shard 2 mid-run via FaultConfig
    outage windows and the committed stats — fleet and per-shard — must
    reproduce byte-identically (at *any* client count; test_cluster.py
    pins 1 vs 64 equality, this golden pins the actual values).  The
    LRU case adds per-shard origin chaos on top of the kill, exercising
    the serve fault/resilience pipeline inside a routed fleet.
    """
    return {
        "chrome_federated": _cluster_case("chrome"),
        "chrome_federated_killshard": _cluster_case(
            "chrome", kill_shard=2, kill_fault_params=_GOLDEN_KILL_FAULTS
        ),
        "lru_faults_killshard": _cluster_case(
            "lru",
            federate_every=0,
            kill_shard=1,
            kill_fault_params=_GOLDEN_KILL_FAULTS,
            fault_params=_GOLDEN_FAULTS,
        ),
    }


def _reprd(value):
    """Recursively repr floats so golden equality is byte-exact."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_reprd(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _reprd(v) for k, v in value.items()}
    return value


def _ops_stats(result, fleet: bool) -> dict:
    """Everything an ops-managed run decides, floats repr'd.

    The windows and the event log are pinned whole — every promote /
    trip / rollback / snapshot transition, at its exact window, seq and
    virtual time — not just the final counters.
    """
    return {
        "champion": (
            _cluster_stats(result.champion) if fleet
            else _serve_stats(result.champion)
        ),
        "challenger": (
            _serve_stats(result.challenger)
            if result.challenger is not None
            else None
        ),
        "windows": _reprd(result.windows),
        "events": _reprd(result.events),
        "counters": {
            "snapshots": result.snapshots,
            "promotions": result.promotions,
            "trips": result.trips,
            "rollbacks": result.rollbacks,
            "degradations": result.degradations,
        },
    }


#: the guarded-degradation ops spec (mirrors the validated recovery
#: scenario the ops tests and bench use)
_GOLDEN_OPS_GUARD = (
    ("window", 200),
    ("min_byte_hit_ewma", 0.05),
    ("trip_after", 2),
    ("warmup_windows", 2),
    ("snapshot_every", 2),
    ("degrade_at_window", 6),
)

#: the fleet variant runs the same stream over 3 shard-sized caches
#: (1/3 capacity each), so its healthy byte-hit EWMA sits lower —
#: the floor must separate "small shards" from "sabotaged deploy"
_GOLDEN_OPS_GUARD_FLEET = tuple(
    (k, 0.02 if k == "min_byte_hit_ewma" else v) for k, v in _GOLDEN_OPS_GUARD
)


def _ops_case(**overrides) -> dict:
    spec = dict(
        workload="zipf_scan",
        policy="chrome",
        num_requests=1200,
        warmup_requests=200,
        capacity_bytes=2 << 20,
        num_segments=64,
        num_clients=5,
        seed=17,
        checkpoint_every=400,
    )
    spec.update(overrides)
    fleet = spec.get("num_shards", 0) > 0
    return _ops_stats(env_job("ops", **spec).execute(), fleet=fleet)


def compute_ops_golden() -> dict:
    """Fixed-seed ops runs pinning the live-operations control loop.

    ``shadow_chrome_zipf_scan`` runs the exact serve-golden
    ``chrome_zipf_scan`` spec with a shadow LRU challenger attached —
    its champion block must stay byte-identical to the committed serve
    golden (the zero-impact contract, cross-asserted by test).  The
    guarded cases pin a whole degradation story: bad deploy at window
    6, guardrail trip, rollback to a ring snapshot, recovery — single
    service and 3-shard fleet.
    """
    return {
        "shadow_chrome_zipf_scan": _ops_case(
            ops_params=(("window", 200), ("challenger_policy", "lru")),
        ),
        "guarded_degrade_phases": _ops_case(
            workload="phases",
            workload_params=(("num_phases", 8),),
            num_requests=4000,
            checkpoint_every=0,
            ops_params=_GOLDEN_OPS_GUARD,
        ),
        "cluster_guarded_degrade": _ops_case(
            workload="phases",
            workload_params=(("num_phases", 8),),
            num_requests=4000,
            checkpoint_every=0,
            ops_params=_GOLDEN_OPS_GUARD_FLEET,
            num_shards=3,
            federate_every=500,
        ),
    }


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute_golden()


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_determinism.py --regenerate`"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "case",
    [
        "lru_2core",
        "chrome_2core",
        "lru_16core",
        "chrome_16core_capped",
        "chrome_gap_2core",
    ],
)
def test_stats_bit_identical(case: str, computed: dict, golden: dict) -> None:
    assert computed[case] == golden[case], (
        f"{case}: simulated behavior diverged from the committed golden. "
        "If this change is intentionally behavior-altering, regenerate "
        "with `PYTHONPATH=src python tests/test_golden_determinism.py "
        "--regenerate` and justify the diff; a pure perf change must "
        "never trip this."
    )


def test_repeated_run_is_deterministic(computed: dict) -> None:
    """Two in-process runs agree (no hidden global/RNG leakage)."""
    again = compute_golden()
    assert again == computed


@pytest.fixture(scope="module")
def serve_computed() -> dict:
    return compute_serve_golden()


@pytest.fixture(scope="module")
def serve_golden() -> dict:
    assert SERVE_GOLDEN_PATH.exists(), (
        f"missing golden file {SERVE_GOLDEN_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_determinism.py --regenerate`"
    )
    return json.loads(SERVE_GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "case",
    [
        "lru_zipf_scan",
        "chrome_zipf_scan",
        "chrome_multitenant",
        "s3fifo_phases",
        "chrome_proxy_burst",
        "gdsf_retrieval",
        "lru_storage_tier",
    ],
)
def test_serve_stats_bit_identical(
    case: str, serve_computed: dict, serve_golden: dict
) -> None:
    assert serve_computed[case] == serve_golden[case], (
        f"{case}: serve behavior diverged from the committed golden "
        "(this is also what `--jobs 1` vs `--jobs N` identity rests "
        "on).  If the change is intentionally behavior-altering, "
        "regenerate with `PYTHONPATH=src python "
        "tests/test_golden_determinism.py --regenerate` and justify "
        "the diff."
    )


def test_serve_repeated_run_is_deterministic(serve_computed: dict) -> None:
    again = compute_serve_golden()
    assert again == serve_computed


@pytest.fixture(scope="module")
def serve_faults_computed() -> dict:
    return compute_serve_faults_golden()


@pytest.fixture(scope="module")
def serve_faults_golden() -> dict:
    assert SERVE_FAULTS_GOLDEN_PATH.exists(), (
        f"missing golden file {SERVE_FAULTS_GOLDEN_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_determinism.py --regenerate`"
    )
    return json.loads(SERVE_FAULTS_GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "case",
    [
        "lru_naive_outages",
        "chrome_resilient_outages",
        "lru_resilient_brownout",
    ],
)
def test_serve_faults_stats_bit_identical(
    case: str, serve_faults_computed: dict, serve_faults_golden: dict
) -> None:
    assert serve_faults_computed[case] == serve_faults_golden[case], (
        f"{case}: chaos-path serve behavior diverged from the committed "
        "golden (fault windows, retry totals and breaker trips are all "
        "deterministic by construction).  If the change is intentionally "
        "behavior-altering, regenerate with `PYTHONPATH=src python "
        "tests/test_golden_determinism.py --regenerate` and justify the "
        "diff."
    )


def test_serve_faults_repeated_run_is_deterministic(
    serve_faults_computed: dict,
) -> None:
    again = compute_serve_faults_golden()
    assert again == serve_faults_computed


@pytest.fixture(scope="module")
def cluster_computed() -> dict:
    return compute_cluster_golden()


@pytest.fixture(scope="module")
def cluster_golden() -> dict:
    assert CLUSTER_GOLDEN_PATH.exists(), (
        f"missing golden file {CLUSTER_GOLDEN_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_determinism.py --regenerate`"
    )
    return json.loads(CLUSTER_GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "case",
    [
        "chrome_federated",
        "chrome_federated_killshard",
        "lru_faults_killshard",
    ],
)
def test_cluster_stats_bit_identical(
    case: str, cluster_computed: dict, cluster_golden: dict
) -> None:
    assert cluster_computed[case] == cluster_golden[case], (
        f"{case}: cluster behavior diverged from the committed golden "
        "(ring routing, shard-kill failover, hot-key splitting and "
        "Q-table federation are all deterministic by construction).  "
        "If the change is intentionally behavior-altering, regenerate "
        "with `PYTHONPATH=src python tests/test_golden_determinism.py "
        "--regenerate` and justify the diff."
    )


def test_cluster_repeated_run_is_deterministic(cluster_computed: dict) -> None:
    again = compute_cluster_golden()
    assert again == cluster_computed


@pytest.fixture(scope="module")
def ops_computed() -> dict:
    return compute_ops_golden()


@pytest.fixture(scope="module")
def ops_golden() -> dict:
    assert OPS_GOLDEN_PATH.exists(), (
        f"missing golden file {OPS_GOLDEN_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_determinism.py --regenerate`"
    )
    return json.loads(OPS_GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "case",
    [
        "shadow_chrome_zipf_scan",
        "guarded_degrade_phases",
        "cluster_guarded_degrade",
    ],
)
def test_ops_stats_bit_identical(
    case: str, ops_computed: dict, ops_golden: dict
) -> None:
    assert ops_computed[case] == ops_golden[case], (
        f"{case}: live-operations behavior diverged from the committed "
        "golden (window rows, promote/trip/rollback events and their "
        "virtual times are all deterministic by construction).  If the "
        "change is intentionally behavior-altering, regenerate with "
        "`PYTHONPATH=src python tests/test_golden_determinism.py "
        "--regenerate` and justify the diff."
    )


def test_ops_shadow_champion_matches_serve_golden(
    ops_computed: dict, serve_golden: dict
) -> None:
    """The zero-impact contract, pinned against the committed file: a
    champion with a shadow challenger attached serves byte-identically
    to the same spec with no ops layer at all."""
    assert (
        ops_computed["shadow_chrome_zipf_scan"]["champion"]
        == serve_golden["chrome_zipf_scan"]
    )


def test_ops_golden_runs_degrade_trip_and_rollback(ops_computed: dict) -> None:
    """The guarded cases genuinely exercise the whole state machine."""
    for case in ("guarded_degrade_phases", "cluster_guarded_degrade"):
        counters = ops_computed[case]["counters"]
        assert counters["degradations"] == 1, case
        assert counters["trips"] >= 1, case
        assert counters["rollbacks"] >= 1, case
        kinds = [e["kind"] for e in ops_computed[case]["events"]]
        assert kinds.index("trip") > kinds.index("degrade"), case


def test_ops_repeated_run_is_deterministic(ops_computed: dict) -> None:
    again = compute_ops_golden()
    assert again == ops_computed


@pytest.fixture(scope="module")
def workloads_computed() -> dict:
    return compute_workloads_golden()


@pytest.fixture(scope="module")
def workloads_golden() -> dict:
    assert WORKLOADS_GOLDEN_PATH.exists(), (
        f"missing golden file {WORKLOADS_GOLDEN_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_determinism.py --regenerate`"
    )
    return json.loads(WORKLOADS_GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", list(_WORKLOAD_GOLDEN_NAMES))
def test_workload_stream_bit_identical(
    case: str, workloads_computed: dict, workloads_golden: dict
) -> None:
    assert workloads_computed[case] == workloads_golden[case], (
        f"{case}: the generator's request stream diverged from the "
        "committed golden (first-N tuples and whole-stream checksum).  "
        "If the generator change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_golden_determinism.py "
        "--regenerate` and justify the diff — silent stream drift "
        "invalidates every serve result comparison."
    )


def test_workload_streams_repeated_run_deterministic(
    workloads_computed: dict,
) -> None:
    again = compute_workloads_golden()
    assert again == workloads_computed


def main() -> None:  # pragma: no cover - maintenance helper
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regenerate",
        action="store_true",
        help=f"rewrite {GOLDEN_PATH} from the current code",
    )
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do; pass --regenerate (tests run under pytest)")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
    SERVE_GOLDEN_PATH.write_text(
        json.dumps(compute_serve_golden(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {SERVE_GOLDEN_PATH}")
    SERVE_FAULTS_GOLDEN_PATH.write_text(
        json.dumps(compute_serve_faults_golden(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {SERVE_FAULTS_GOLDEN_PATH}")
    CLUSTER_GOLDEN_PATH.write_text(
        json.dumps(compute_cluster_golden(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {CLUSTER_GOLDEN_PATH}")
    OPS_GOLDEN_PATH.write_text(
        json.dumps(compute_ops_golden(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {OPS_GOLDEN_PATH}")
    WORKLOADS_GOLDEN_PATH.write_text(
        json.dumps(compute_workloads_golden(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {WORKLOADS_GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    main()
