"""Serve experiments: CHROME vs. classic policies on the PR-1 engine.

Seven experiments register at import time (importing
:mod:`repro.experiments` — or :mod:`repro.serve` — is enough), each a
declarative :class:`~repro.experiments.engine.ExperimentPlan` over
``serve`` :class:`~repro.env.jobs.EnvJob` specs
(:class:`~repro.serve.env.ServeEnvironment`):

* ``serve_zipf``        — Zipf traffic polluted by periodic one-shot
  scans: the admission benchmark (can a policy refuse bytes that will
  never be re-read?);
* ``serve_multitenant`` — four tenants with clashing behaviours (Zipf,
  scanner, bursty, light Zipf) sharing one cache; per-tenant byte hit
  ratios show who wins and who starves;
* ``serve_phases``      — diurnal popularity shifts: stale-frequency
  traps for LFU-like policies, adaptation speed for the agent;
* ``serve_proxy_burst`` — NGINX-style proxy traffic with size-blind
  one-shot storms and crawler-retry echoes (Cold-RL's setting): no
  size heuristic filters the storms, fixed two-touch promotion admits
  dead echo keys;
* ``serve_retrieval``   — semantic-retrieval / embedding-buffer access
  with clustered near-duplicates, drifting hot clusters and short
  conversation sessions (Sun et al.'s setting);
* ``serve_storage``     — bimodal storage-tier reuse plus sequential
  backup floods (Phoebe's setting);
* ``serve_faults``      — chaos run: deterministic outages, error
  bursts and latency spikes against a resilient (timeout/retry/
  breaker/stale/shed) vs. a naive configuration of the same policy —
  graceful degradation, quantified.

Run sizes map from the shared :class:`ExperimentScale`: CLI/env knobs
(``--accesses``, ``--warmup``, ``REPRO_SCALE``...) scale serve
experiments exactly like figure experiments, and the engine gives them
``--jobs N`` parallelism, cross-experiment dedup and ``--cache-dir``
memoization for free.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from ..env.jobs import EnvJob, env_job
from ..experiments.engine import ExperimentPlan
from ..experiments.registry import register_experiment
from ..experiments.report import ExperimentResult
from ..experiments.runner import ExperimentScale
from .metrics import ServeMetrics

#: every serve experiment compares these policies (CHROME last so the
#: table reads baseline -> learned)
SERVE_POLICIES_COMPARED: Tuple[str, ...] = ("lru", "lfu", "gdsf", "s3fifo", "chrome")

#: full-scale store geometry; capacity scales with machine_scale the
#: way the LLC does, segments stay fixed (the sampled-segment scheme
#: needs at least the 64 training segments)
FULL_SCALE_CAPACITY_BYTES = 256 << 20  # 256 MiB at machine_scale=1.0
NUM_SEGMENTS = 128
MIN_CAPACITY_BYTES = NUM_SEGMENTS * (96 << 10)  # >= one large object per segment


def serve_capacity(scale: ExperimentScale) -> int:
    return max(
        MIN_CAPACITY_BYTES, int(FULL_SCALE_CAPACITY_BYTES * scale.machine_scale)
    )


def _serve_job(
    scale: ExperimentScale, workload: str, policy: str, **params
) -> EnvJob:
    return env_job(
        "serve",
        workload=workload,
        policy=policy,
        num_requests=scale.accesses_per_core,
        warmup_requests=scale.warmup_per_core,
        capacity_bytes=serve_capacity(scale),
        num_segments=NUM_SEGMENTS,
        num_clients=8,
        **params,
    )


def _policy_rows(
    jobs: Mapping[str, EnvJob], results: Mapping[EnvJob, ServeMetrics]
) -> List[List[object]]:
    rows: List[List[object]] = []
    for policy, job in jobs.items():
        m = results[job]
        rows.append(
            [
                policy,
                round(100.0 * m.object_hit_ratio, 2),
                round(100.0 * m.byte_hit_ratio, 2),
                round(100.0 * m.backend_load, 2),
                round(m.p99_latency_ms, 2),
                m.evictions,
                m.bypassed,
            ]
        )
    return rows


_COLUMNS = [
    "policy",
    "object_hit%",
    "byte_hit%",
    "backend_load%",
    "p99_ms",
    "evictions",
    "bypasses",
]


def _chrome_vs_lru_note(
    jobs: Mapping[str, EnvJob], results: Mapping[EnvJob, ServeMetrics]
) -> str:
    chrome = results[jobs["chrome"]]
    lru = results[jobs["lru"]]
    delta = 100.0 * (chrome.byte_hit_ratio - lru.byte_hit_ratio)
    return (
        f"CHROME byte hit ratio {100.0 * chrome.byte_hit_ratio:.2f}% vs "
        f"LRU {100.0 * lru.byte_hit_ratio:.2f}% ({delta:+.2f} pts)"
    )


def _comparison_plan(
    experiment_id: str,
    title: str,
    workload: str,
    scale: ExperimentScale,
    extra_notes=None,
) -> ExperimentPlan:
    jobs = {
        policy: _serve_job(scale, workload, policy)
        for policy in SERVE_POLICIES_COMPARED
    }

    def assemble(results: Mapping[EnvJob, ServeMetrics]) -> ExperimentResult:
        notes = [_chrome_vs_lru_note(jobs, results)]
        if extra_notes is not None:
            notes.extend(extra_notes(jobs, results))
        return ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            columns=list(_COLUMNS),
            rows=_policy_rows(jobs, results),
            notes=notes,
        )

    return ExperimentPlan(
        experiment_id=experiment_id,
        jobs=tuple(jobs.values()),
        assemble=assemble,
    )


def serve_zipf_plan(scale: ExperimentScale) -> ExperimentPlan:
    return _comparison_plan(
        "serve_zipf",
        "object cache under Zipf + scan pollution (CHROME vs. baselines)",
        "zipf_scan",
        scale,
    )


def serve_phases_plan(scale: ExperimentScale) -> ExperimentPlan:
    return _comparison_plan(
        "serve_phases",
        "object cache under diurnal phase shifts",
        "phases",
        scale,
    )


def serve_proxy_burst_plan(scale: ExperimentScale) -> ExperimentPlan:
    return _comparison_plan(
        "serve_proxy_burst",
        "proxy cache under size-blind burst storms with crawler echoes",
        "proxy_burst",
        scale,
    )


def serve_retrieval_plan(scale: ExperimentScale) -> ExperimentPlan:
    return _comparison_plan(
        "serve_retrieval",
        "embedding buffer under clustered retrieval with query drift",
        "retrieval",
        scale,
    )


def serve_storage_plan(scale: ExperimentScale) -> ExperimentPlan:
    return _comparison_plan(
        "serve_storage",
        "storage tier under bimodal reuse and sequential floods",
        "storage_tier",
        scale,
    )


"""Chaos scenario: all window widths scale with the run's virtual
horizon, so ~the same number of outages hit a CI-sized run and a
full-scale one.  ``INTER_ARRIVAL_MS`` mirrors LatencyConfig's default
(the virtual horizon of N requests is ``N * inter_arrival``)."""
INTER_ARRIVAL_MS = 0.5

#: policies the chaos experiment stresses (baseline + learned)
FAULT_POLICIES: Tuple[str, ...] = ("lru", "chrome")


def chaos_fault_params(scale: ExperimentScale) -> Tuple[Tuple[str, object], ...]:
    """The pinned ``serve_faults`` fault model at a given run scale."""
    horizon = (scale.accesses_per_core + scale.warmup_per_core) * INTER_ARRIVAL_MS
    return (
        ("seed", 1),
        ("error_rate", 0.01),
        ("spike_rate", 0.02),
        ("spike_multiplier", 8.0),
        ("burst_every_ms", round(horizon / 4.0, 3)),
        ("burst_duration_ms", round(horizon / 30.0, 3)),
        ("outage_every_ms", round(horizon / 3.0, 3)),
        ("outage_duration_ms", round(horizon / 12.0, 3)),
        ("recovery_ramp_ms", round(horizon / 24.0, 3)),
        ("recovery_multiplier", 4.0),
    )


def resilient_params(scale: ExperimentScale) -> Tuple[Tuple[str, object], ...]:
    """The graceful-degradation configuration under test.

    Two knobs must be sized against the fault model, not picked in the
    abstract:

    * the breaker's open window sits well below the outage duration
      (``horizon/12`` in :func:`chaos_fault_params`): the breaker's job
      is to fast-fail *during* an outage, then rediscover recovery via
      half-open probes within a few virtual ms of the origin coming
      back — an open window wider than the outage keeps denying healthy
      requests after recovery and *raises* the error rate above naive;
    * the request latency budget (``timeout_ms``) sits below the naive
      p99, so every degraded miss — retries, backoff and all — resolves
      faster than the naive tail it replaces.
    """
    horizon = (scale.accesses_per_core + scale.warmup_per_core) * INTER_ARRIVAL_MS
    return (
        ("timeout_ms", 30.0),
        ("shed_outstanding", 128),
        ("breaker_open_ms", round(horizon / 120.0, 3)),
    )

#: the control group: one attempt, no breaker, no stale copies, no shed
NAIVE_PARAMS: Tuple[Tuple[str, object], ...] = (("preset", "none"),)


def serve_faults_plan(scale: ExperimentScale) -> ExperimentPlan:
    fault_params = chaos_fault_params(scale)
    jobs = {}
    for policy in FAULT_POLICIES:
        for mode, resilience_params in (
            ("naive", NAIVE_PARAMS),
            ("resilient", resilient_params(scale)),
        ):
            jobs[(policy, mode)] = _serve_job(
                scale,
                "zipf_scan",
                policy,
                fault_params=fault_params,
                resilience_params=resilience_params,
            )

    def assemble(results: Mapping[EnvJob, ServeMetrics]) -> ExperimentResult:
        rows: List[List[object]] = []
        notes: List[str] = []
        for policy in FAULT_POLICIES:
            for mode in ("naive", "resilient"):
                m = results[jobs[(policy, mode)]]
                rows.append(
                    [
                        policy,
                        mode,
                        round(100.0 * m.byte_hit_ratio, 2),
                        round(100.0 * m.error_rate, 2),
                        m.shed,
                        m.stale_served,
                        m.retries,
                        m.breaker_opens,
                        round(m.p99_latency_ms, 2),
                        round(m.degraded_p99_latency_ms, 2),
                    ]
                )
            naive = results[jobs[(policy, "naive")]]
            resilient = results[jobs[(policy, "resilient")]]
            notes.append(
                f"{policy}: resilient error {100.0 * resilient.error_rate:.2f}% "
                f"vs naive {100.0 * naive.error_rate:.2f}%, p99 "
                f"{resilient.p99_latency_ms:.2f}ms vs "
                f"{naive.p99_latency_ms:.2f}ms"
            )
        return ExperimentResult(
            experiment_id="serve_faults",
            title="object cache under injected outages: resilient vs. naive",
            columns=[
                "policy",
                "mode",
                "byte_hit%",
                "error%",
                "shed",
                "stale",
                "retries",
                "breaker_opens",
                "p99_ms",
                "degraded_p99_ms",
            ],
            rows=rows,
            notes=notes,
        )

    return ExperimentPlan(
        experiment_id="serve_faults",
        jobs=tuple(jobs.values()),
        assemble=assemble,
    )


def serve_multitenant_plan(scale: ExperimentScale) -> ExperimentPlan:
    def tenant_notes(jobs, results):
        notes = []
        for policy in ("lru", "chrome"):
            m = results[jobs[policy]]
            per = ", ".join(
                f"t{t}={100.0 * tm.byte_hit_ratio:.1f}%"
                for t, tm in sorted(m.per_tenant.items())
            )
            notes.append(f"{policy} per-tenant byte hit: {per}")
        return notes

    return _comparison_plan(
        "serve_multitenant",
        "shared object cache, four tenants with clashing behaviours",
        "multitenant",
        scale,
        extra_notes=tenant_notes,
    )


SERVE_PLANS = {
    "serve_zipf": serve_zipf_plan,
    "serve_multitenant": serve_multitenant_plan,
    "serve_phases": serve_phases_plan,
    "serve_proxy_burst": serve_proxy_burst_plan,
    "serve_retrieval": serve_retrieval_plan,
    "serve_storage": serve_storage_plan,
    "serve_faults": serve_faults_plan,
}


for _experiment_id, _plan in SERVE_PLANS.items():
    register_experiment(_experiment_id, _plan)
