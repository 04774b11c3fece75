"""Differential tests for the chaos-capable serving layer.

Three bit-identity claims, each checked against an *independent*
reference rather than a re-run of the same code path:

1. **resilience at defaults is invisible** — running the committed
   golden scenarios through the resilient pipeline (default
   :class:`ResilienceConfig`, no faults) reproduces the *pre-chaos*
   golden file byte-for-byte.  The degraded pipeline engages (breaker
   checks, stale retention, the attempt loop) yet every float matches
   the legacy path, because on a healthy origin no knob ever fires;
2. **client-count invariance survives chaos** — with faults injected,
   ``num_clients=1`` (the plain synchronous loop) and
   ``num_clients=64`` (the sequenced asyncio driver) produce identical
   metrics, including every degradation counter;
3. **process invariance** — a fresh ``python`` subprocess running the
   same chaos job reproduces this process's stats exactly (fault
   decisions are pure hashes, not ``hash()`` or ambient RNG, so
   nothing depends on interpreter state).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.env import EnvJob, env_job
from repro.serve.config import ServiceConfig, build_resilience_config
from repro.serve.resilience import ResilienceConfig

from tests.test_golden_determinism import (
    SERVE_GOLDEN_PATH,
    _serve_fault_stats,
    _serve_stats,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _golden_job(workload: str, policy: str, **overrides) -> EnvJob:
    """The exact job shape behind the committed serve golden cases."""
    spec = dict(
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
    spec.update(overrides)
    return env_job("serve", **spec)


CHAOS_FAULTS = (
    ("seed", 9),
    ("error_rate", 0.02),
    ("spike_rate", 0.03),
    ("spike_multiplier", 6.0),
    ("burst_every_ms", 140.0),
    ("burst_duration_ms", 20.0),
    ("outage_every_ms", 210.0),
    ("outage_duration_ms", 45.0),
    ("recovery_ramp_ms", 25.0),
    ("brownout_tenant", 2),
    ("brownout_every_ms", 160.0),
    ("brownout_duration_ms", 35.0),
)

CHAOS_RESILIENCE = (
    ("timeout_ms", 25.0),
    ("breaker_open_ms", 5.0),
    ("shed_outstanding", 24),
)


def _chaos_job(policy: str, workload: str = "multitenant", **extra) -> EnvJob:
    return _golden_job(
        workload,
        policy,
        fault_params=CHAOS_FAULTS,
        resilience_params=CHAOS_RESILIENCE,
        **extra,
    )


# --- 1. default resilience reproduces the pre-chaos golden -------------------


@pytest.mark.parametrize(
    "case, workload, policy",
    [
        ("lru_zipf_scan", "zipf_scan", "lru"),
        ("chrome_zipf_scan", "zipf_scan", "chrome"),
        ("chrome_multitenant", "multitenant", "chrome"),
        ("s3fifo_phases", "phases", "s3fifo"),
    ],
)
def test_default_resilience_matches_committed_golden(
    case: str, workload: str, policy: str
) -> None:
    golden = json.loads(SERVE_GOLDEN_PATH.read_text())
    job = _golden_job(workload, policy, resilience_params=(("preset", "default"),))
    # sanity: the spec really selects the degraded pipeline with the
    # all-defaults policy, not the legacy path
    assert build_resilience_config(job.params["resilience_params"]) == ResilienceConfig()
    assert _serve_stats(job.execute()) == golden[case], (
        f"{case}: the resilient pipeline with default knobs diverged "
        "from the legacy request path — graceful degradation must be "
        "a no-op on a healthy origin"
    )


def test_default_resilience_pipeline_actually_engages() -> None:
    """The previous test is only meaningful if the resilient branch ran:
    the degraded path leaves a fingerprint (stale retention tracks
    evictions) that the legacy path never produces."""
    from repro.serve.metrics import MetricsRecorder
    from repro.serve.service import CacheService, replay_requests
    from repro.serve.store import ObjectStore
    from repro.serve.workloads import build_workload

    config = ServiceConfig(
        capacity_bytes=2 << 20,
        num_segments=64,
        policy="lru",
        warmup_requests=200,
        seed=17,
        workload_name="zipf_scan",
        resilience=ResilienceConfig(),
    )
    requests = build_workload("zipf_scan", 1200 + 200, seed=17)
    recorder = MetricsRecorder(policy="lru", workload="zipf_scan")
    store = ObjectStore(config.capacity_bytes, config.num_segments, config.build_policy())
    service = CacheService(store, config, recorder=recorder)
    assert service.resilience is not None
    replay_requests(service, requests)
    metrics = recorder.finalize()
    assert metrics.evictions > 0
    assert service.resilience.stale_retained > 0  # evict hook fired
    assert metrics.errors == metrics.shed == metrics.retries == 0


# --- 2. chaos runs are client-count invariant --------------------------------


@pytest.mark.parametrize("policy", ["lru", "chrome"])
def test_chaos_bit_identical_across_client_counts(policy: str) -> None:
    serial = _serve_fault_stats(_chaos_job(policy, num_clients=1).execute())
    concurrent = _serve_fault_stats(_chaos_job(policy, num_clients=64).execute())
    assert serial == concurrent, (
        "fault decisions or degradation state leaked scheduling order: "
        "num_clients=1 and num_clients=64 diverged under chaos"
    )
    # the comparison is only interesting if chaos actually happened
    assert serial["errors"] > 0
    assert serial["retries"] > 0


# --- 3. chaos runs are process invariant -------------------------------------

_SUBPROCESS_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {root!r})
from repro.env import env_job
from tests.test_golden_determinism import _serve_fault_stats
spec = {{
    k: tuple(map(tuple, v)) if isinstance(v, list) else v
    for k, v in json.loads(sys.stdin.read()).items()
}}
job = env_job("serve", **spec)
print(json.dumps(_serve_fault_stats(job.execute()), sort_keys=True))
"""


def _job_spec_json(job: EnvJob) -> str:
    return json.dumps(job.params)


def test_chaos_reproducible_across_processes() -> None:
    job = _chaos_job("chrome", workload="zipf_scan")
    here = _serve_fault_stats(job.execute())
    script = _SUBPROCESS_SCRIPT.format(
        src=SRC, root=str(Path(__file__).resolve().parent.parent)
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=_job_spec_json(job),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    subprocess_stats = json.loads(proc.stdout)
    # the job round-trips through JSON, which turns param tuples into
    # lists; canonicalize via a JSON round-trip of the local stats too
    assert subprocess_stats == json.loads(json.dumps(here, sort_keys=True))
    assert subprocess_stats["errors"] > 0


# --- backoff attempt ladder -----------------------------------------------------


@pytest.mark.parametrize(
    "attempt,expected_base",
    [
        (1, 2.0),   # base: first retry waits backoff_base_ms
        (2, 4.0),   # growth: base * multiplier
        (3, 8.0),
        (5, 32.0),
        (6, 50.0),  # cap: 64 ms clamped to backoff_cap_ms
        (9, 50.0),  # stays capped arbitrarily deep into the ladder
        (0, 2.0),   # defensive clamp: never below base (pre-fix this
                    # underflowed to base / multiplier = 1.0)
    ],
)
def test_backoff_attempt_ladder(attempt: int, expected_base: float) -> None:
    from repro.serve.resilience import ResilienceState

    state = ResilienceState(ResilienceConfig(seed=3))
    cfg = state.config
    for seq in (0, 7, 1001):
        backoff = state.backoff_ms(seq, attempt)
        # jitter is additive and bounded: [expected, expected * (1 + jf))
        assert backoff >= expected_base
        assert backoff < expected_base * (1.0 + cfg.jitter_fraction)
        # deterministic: a pure hash of (seed, seq, attempt)
        assert state.backoff_ms(seq, attempt) == backoff


def test_backoff_without_jitter_is_exact() -> None:
    from repro.serve.resilience import ResilienceState

    state = ResilienceState(ResilienceConfig(jitter_fraction=0.0))
    assert [state.backoff_ms(0, a) for a in (1, 2, 3, 4, 5, 6, 7)] == [
        2.0, 4.0, 8.0, 16.0, 32.0, 50.0, 50.0
    ]
    assert state.backoff_ms(0, 0) == 2.0  # clamped, not 1.0
