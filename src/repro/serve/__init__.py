"""``repro.serve`` — a software object-cache serving layer driven by
the CHROME agent.

The first subsystem where the reproduction's contribution runs
*outside* the LLC simulator: a size-aware segmented object store
(:mod:`.store`), the paper's RL agent retargeted to cache requests
(:mod:`.agent` — key signatures for PCs, tenants for cores, backend
latency for C-AMAT), classic software-cache baselines behind one
interface (:mod:`.policies`), seeded request generators
(:mod:`.workloads`), an asyncio front-end whose results are
bit-identical under any client concurrency (:mod:`.service`), and
operator metrics (:mod:`.metrics`).

Chaos engineering rides on top: :mod:`.faults` injects deterministic,
virtual-time backend misbehavior (latency spikes, error bursts, full
outages, per-tenant brownouts, post-recovery slow start) and
:mod:`.resilience` supplies graceful degradation (per-request timeout,
retries with seeded-jitter backoff, a per-tenant circuit breaker,
stale serving, load shedding) — all bit-identical at any client count.

Importing this package registers the ``serve_zipf``,
``serve_multitenant``, ``serve_phases``, ``serve_proxy_burst``,
``serve_retrieval``, ``serve_storage`` and ``serve_faults``
experiments with the shared registry; their
:class:`~repro.serve.jobs.ServeJob` specs run on the parallel
experiment engine like every paper figure.
"""

from .agent import BackendObstructionMonitor, ChromeServePolicy, ServeAgent
from .config import ServiceConfig
from .faults import FaultConfig, FaultInjector
from .jobs import SERVE_CODE_VERSION, ServeJob
from .metrics import MetricsRecorder, ServeMetrics, TenantMetrics
from .resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ResilienceConfig,
    ResilienceState,
)
from .policies import (
    SERVE_POLICIES,
    GDSFServePolicy,
    LFUServePolicy,
    LRUServePolicy,
    S3FIFOServePolicy,
    ServePolicy,
    make_serve_policy,
    register_serve_policy,
)
from .service import (
    Backend,
    CacheService,
    LatencyConfig,
    drive_requests,
    replay_requests,
    run_configured,
    run_service,
)
from .store import CachedObject, ObjectStore
from .workloads import (
    MAX_OBJECT_BYTES,
    WORKLOAD_SPECS,
    WORKLOADS,
    Request,
    WorkloadSpec,
    build_workload,
    key_namespace,
    object_size,
)

from . import experiments as _experiments  # noqa: F401  (eager registration)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "Backend",
    "BackendObstructionMonitor",
    "CacheService",
    "CachedObject",
    "ChromeServePolicy",
    "CircuitBreaker",
    "FaultConfig",
    "FaultInjector",
    "GDSFServePolicy",
    "LFUServePolicy",
    "LRUServePolicy",
    "LatencyConfig",
    "MetricsRecorder",
    "ObjectStore",
    "Request",
    "ResilienceConfig",
    "ResilienceState",
    "S3FIFOServePolicy",
    "SERVE_CODE_VERSION",
    "SERVE_POLICIES",
    "ServeAgent",
    "ServeJob",
    "ServeMetrics",
    "ServePolicy",
    "ServiceConfig",
    "MAX_OBJECT_BYTES",
    "TenantMetrics",
    "WORKLOADS",
    "WORKLOAD_SPECS",
    "WorkloadSpec",
    "build_workload",
    "drive_requests",
    "key_namespace",
    "make_serve_policy",
    "object_size",
    "register_serve_policy",
    "replay_requests",
    "run_configured",
    "run_service",
]
