"""Property-based invariant tests for the serving layer.

Rather than pinning exact numbers (the goldens do that), this suite
sweeps *seeded random configurations* — workload, store geometry,
client count, fault model, resilience policy — and checks invariants
that must hold for every :class:`~repro.serve.policies.ServePolicy`
(classic baselines and the CHROME agent alike), healthy or under
injected chaos:

* **occupancy** — no segment ever holds more bytes than its budget,
  and the store never exceeds its total capacity;
* **fit** — every admitted object fits inside one segment (oversized
  objects are forced bypasses, never cached);
* **conservation** — every request ends in exactly one of
  {fresh hit, origin-served miss, stale serve, error, shed}:
  ``hits + origin_served + stale_served + errors + shed == requests``;
* **ratios** — object/byte hit ratios, error rate and degraded
  fraction all live in ``[0, 1]``;
* **retry/timeout bounds** — at most ``max_attempts - 1`` retries per
  origin-eligible request, and (because ``timeout_ms`` is a whole-
  request budget) at most one timeout per non-hit request;
* **breaker isolation** — while a tenant's breaker denies, the backend
  is never fetched for that request (checked by instrumenting
  ``CircuitBreaker.allow`` and ``Backend.fetch`` — the breaker class
  is deliberately slot-free to allow exactly this).

No extra dependencies: the "property-based" sweep is a seeded
``random.Random`` over the config space, ≥20 configurations per
policy, reproducible by construction.
"""

from __future__ import annotations

import random

import pytest

from repro.serve.jobs import ServeJob
from repro.serve.metrics import MetricsRecorder
from repro.serve.service import CacheService, drive_requests
from repro.serve.store import ObjectStore
from repro.serve.workloads import build_workload

POLICIES = ("lru", "lfu", "gdsf", "s3fifo", "chrome")
WORKLOADS = ("zipf_scan", "multitenant", "phases", "bursty")
CONFIGS_PER_POLICY = 20


class AuditedStore(ObjectStore):
    """ObjectStore that re-checks occupancy and fit after every admit."""

    def admit(self, req):
        admitted = super().admit(req)
        if admitted:
            assert req.size <= self.segment_capacity, (
                f"admitted object of {req.size}B into "
                f"{self.segment_capacity}B segments"
            )
        for seg_idx, used in enumerate(self._segment_bytes):
            assert 0 <= used <= self.segment_capacity, (
                f"segment {seg_idx} holds {used}B, "
                f"budget {self.segment_capacity}B"
            )
        assert self.used_bytes <= self.capacity_bytes
        return admitted


class BreakerGuard:
    """Asserts the backend is never touched for a breaker-denied request.

    Wraps every per-tenant ``CircuitBreaker.allow`` to record whether
    the *current* request was denied, and ``Backend.fetch`` to assert
    no fetch happens while that flag is set.  Request processing is
    sequenced, and ``allow`` always runs before any fetch of the same
    request, so a single flag is race-free.
    """

    def __init__(self, service: CacheService, max_tenants: int = 8) -> None:
        self.denied = False
        res = service.resilience
        assert res is not None
        for tenant in range(max_tenants):
            breaker = res.breaker(tenant)
            self._wrap_allow(breaker)
        orig_fetch = service.backend.fetch
        guard = self

        def checked_fetch(size, now_ms):
            assert not guard.denied, "backend fetched while breaker open"
            return orig_fetch(size, now_ms)

        service.backend.fetch = checked_fetch

    def _wrap_allow(self, breaker) -> None:
        orig_allow = breaker.allow
        guard = self

        def checked_allow(now_ms):
            allowed, probing = orig_allow(now_ms)
            guard.denied = not allowed
            return allowed, probing

        breaker.allow = checked_allow


def random_job(rng: random.Random, policy: str) -> ServeJob:
    """One seeded point in the (workload, geometry, chaos) config space."""
    num_segments = rng.choice((16, 32, 64))
    fault_params = ()
    if rng.random() < 0.75:  # 25% of configs stay healthy
        horizon = 500 * 0.5
        fault_params = (
            ("seed", rng.randrange(1 << 16)),
            ("error_rate", rng.choice((0.0, 0.01, 0.05))),
            ("spike_rate", rng.choice((0.0, 0.03))),
            ("spike_multiplier", rng.choice((4.0, 8.0))),
            ("burst_every_ms", rng.choice((0.0, horizon / 3))),
            ("burst_duration_ms", horizon / 12),
            ("outage_every_ms", rng.choice((0.0, horizon / 2))),
            ("outage_duration_ms", horizon / 8),
            ("recovery_ramp_ms", rng.choice((0.0, horizon / 16))),
            ("brownout_tenant", rng.choice((-1, 1))),
            ("brownout_every_ms", horizon / 2),
            ("brownout_duration_ms", horizon / 10),
        )
    resilience_choice = rng.randrange(3)
    if resilience_choice == 0 and not fault_params:
        resilience_params = ()  # legacy request path
    elif resilience_choice == 1:
        resilience_params = (("preset", "none"),)  # naive control
    else:
        resilience_params = (
            ("max_attempts", rng.choice((1, 2, 3, 4))),
            ("timeout_ms", rng.choice((0.0, 20.0, 45.0))),
            ("breaker_failure_threshold", rng.choice((0, 3, 8))),
            ("breaker_open_ms", rng.choice((4.0, 25.0))),
            ("stale_entries", rng.choice((0, 64, 1024))),
            ("shed_outstanding", rng.choice((0, 4, 32))),
            ("seed", rng.randrange(1 << 16)),
        )
    return ServeJob(
        workload=rng.choice(WORKLOADS),
        policy=policy,
        num_requests=rng.randrange(200, 420),
        warmup_requests=rng.choice((0, 40, 90)),
        capacity_bytes=num_segments * rng.choice((24 << 10, 48 << 10, 96 << 10)),
        num_segments=num_segments,
        num_clients=rng.choice((1, 3, 8)),
        seed=rng.randrange(1 << 16),
        fault_params=fault_params,
        resilience_params=resilience_params,
    )


def run_audited(job: ServeJob):
    """Mirror :meth:`ServeJob.execute` with an audited store + guards."""
    total = job.num_requests + job.warmup_requests
    requests = build_workload(
        job.workload, total, seed=job.seed, **dict(job.workload_params)
    )
    recorder = MetricsRecorder(policy=job.policy, workload=job.workload)
    store = AuditedStore(
        job.capacity_bytes, job.num_segments, job.build_policy()
    )
    service = CacheService(
        store,
        recorder=recorder,
        warmup_requests=job.warmup_requests,
        faults=job.build_faults(),
        resilience=job.build_resilience(),
    )
    if service.resilience is not None:
        BreakerGuard(service)
    drive_requests(service, requests, job.num_clients)
    return recorder.finalize(), service


def check_invariants(job: ServeJob, metrics, service: CacheService) -> None:
    m = metrics
    assert m.requests == job.num_requests
    # conservation: every request has exactly one outcome
    assert (
        m.hits + m.origin_served + m.stale_served + m.errors + m.shed
        == m.requests
    ), (
        f"outcome partition broken: {m.hits}+{m.origin_served}"
        f"+{m.stale_served}+{m.errors}+{m.shed} != {m.requests}"
    )
    for ratio in (
        m.object_hit_ratio,
        m.byte_hit_ratio,
        m.error_rate,
        m.degraded_fraction,
    ):
        assert 0.0 <= ratio <= 1.0
    for tenant_metrics in m.per_tenant.values():
        assert 0.0 <= tenant_metrics.object_hit_ratio <= 1.0
        assert 0.0 <= tenant_metrics.byte_hit_ratio <= 1.0
    assert m.bytes_hit <= m.bytes_requested
    res = service.resilience
    if res is not None:
        max_attempts = res.config.max_attempts
        origin_eligible = m.requests - m.hits - m.shed
        assert m.retries <= (max_attempts - 1) * origin_eligible
        # the timeout is a whole-request budget: at most one per miss
        assert m.timeouts <= m.requests - m.hits
        # trips during warmup live in breaker state but not in metrics
        assert m.breaker_opens <= res.breaker_opens()
        if job.warmup_requests == 0:
            assert m.breaker_opens == res.breaker_opens()
        assert m.stale_served <= m.evictions or res.config.stale_entries == 0
    else:
        assert m.retries == m.timeouts == m.errors == m.shed == 0
        assert m.stale_served == 0
    # final store occupancy (the audited store checked every step too)
    assert service.store.used_bytes <= service.store.capacity_bytes


@pytest.mark.parametrize("policy", POLICIES)
def test_serve_invariants_hold_across_seeded_configs(policy: str) -> None:
    from dataclasses import replace

    rng = random.Random(f"serve-properties:{policy}")
    saw_faults = saw_resilient = saw_legacy = False
    for i in range(CONFIGS_PER_POLICY):
        job = random_job(rng, policy)
        # the first three configs pin one pipeline shape each, so every
        # policy's sweep covers legacy, naive-chaos and resilient-chaos
        # regardless of what the random stream happens to draw
        if i == 0:
            job = replace(job, fault_params=(), resilience_params=())
        elif i == 1 and not job.fault_params:
            job = replace(
                job,
                fault_params=(("seed", 3), ("error_rate", 0.05)),
                resilience_params=(("preset", "none"),),
            )
        elif i == 2 and not job.resilience_params:
            job = replace(job, resilience_params=(("max_attempts", 3),))
        saw_faults |= bool(job.fault_params)
        saw_resilient |= bool(job.resilience_params) or bool(job.fault_params)
        saw_legacy |= not job.fault_params and not job.resilience_params
        metrics, service = run_audited(job)
        check_invariants(job, metrics, service)
    # the sweep must actually exercise all three pipeline shapes
    assert saw_faults and saw_resilient and saw_legacy


def test_sweep_actually_degrades_somewhere() -> None:
    """Guard against a silently-inert sweep: across the LRU configs at
    least one run must record errors and at least one must retry."""
    rng = random.Random("serve-properties:lru")
    total_errors = total_retries = total_stale = 0
    for _ in range(CONFIGS_PER_POLICY):
        job = random_job(rng, "lru")
        metrics, _ = run_audited(job)
        total_errors += metrics.errors
        total_retries += metrics.retries
        total_stale += metrics.stale_served
    assert total_errors > 0
    assert total_retries > 0
