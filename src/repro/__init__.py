"""CHROME reproduction: concurrency-aware holistic cache management
with online reinforcement learning (HPCA 2024).

Layout:

* :mod:`repro.core` — CHROME itself (RL agent, Q-table, EQ, rewards,
  features, overhead model);
* :mod:`repro.sim` — the trace-driven multi-core memory-system
  simulator plus every comparator policy and prefetcher;
* :mod:`repro.traces` — SPEC-like synthetic workloads, GAP graph
  kernels, and multi-programmed mix builders;
* :mod:`repro.experiments` — the harness regenerating every table and
  figure of the paper's evaluation.

* :mod:`repro.serve` — the object-cache serving layer driven by the
  CHROME agent (chaos + graceful degradation included);
* :mod:`repro.cluster` — the serving layer scaled out: a consistent-
  hash fleet of serve shards with Q-table federation;
* :mod:`repro.obs` — opt-in observability (timelines, Chrome traces,
  counters);
* :mod:`repro.env` — the Environment protocol: the shared
  :class:`AgentCore` RL driver plus one adapter per domain (sim,
  serve, cluster, and the toy DRAM-row existence proof).

This module is the *versioned facade*: everything in ``__all__`` is
the stable public surface — new subsystems extend it, minor releases
never remove from it.

Quick start::

    from repro import ChromePolicy, MultiCoreSystem, SystemConfig
    from repro.traces import homogeneous_mix

    traces = homogeneous_mix("mcf06", num_cores=4, num_accesses=50_000,
                             scale=1 / 16)
    system = MultiCoreSystem(SystemConfig(num_cores=4, scale=1 / 16),
                             llc_policy=ChromePolicy())
    result = system.run(traces, warmup_accesses=10_000)
    print(result.ipcs, result.llc_stats.demand_miss_ratio)

Serving-layer quick start: see ``examples/cluster_quickstart.py`` and
the README's cluster section.
"""

from .cluster import (
    ClusterMetrics,
    ClusterService,
    HashRing,
)
from .core import (
    ChromeConfig,
    ChromePolicy,
    EvaluationQueue,
    FeatureExtractor,
    QTable,
    RewardConfig,
    chrome_overhead,
    make_nchrome_policy,
    overhead_comparison,
)
from .core.persistence import restore_agent, save_agent
from .env import (
    AgentCore,
    EnvJob,
    Environment,
    Observation,
    available_environments,
    build_environment,
    env_job,
    register_environment,
)
from .obs import ObsConfig
from .experiments import (
    Engine,
    ExperimentPlan,
    ExperimentScale,
    MixSpec,
    PolicySpec,
    ResultCache,
    available_experiments,
    register_experiment,
    resolve_policy,
    run_experiment,
)
from .sim import (
    CAMATMonitor,
    Cache,
    DRAMModel,
    MultiCoreSystem,
    SystemConfig,
    SystemResult,
)
from .serve import (
    CacheService,
    ServeMetrics,
    ServiceConfig,
    run_configured,
)
from .sim.replacement import PAPER_SCHEMES, POLICY_REGISTRY, make_policy
from .traces import (
    ALL_SPEC_WORKLOADS,
    GAP_TRACES,
    Trace,
    build_gap_trace,
    build_spec_trace,
    heterogeneous_mix,
    homogeneous_mix,
)

__version__ = "2.0.0"

__all__ = [
    "ALL_SPEC_WORKLOADS",
    "AgentCore",
    "CAMATMonitor",
    "Cache",
    "CacheService",
    "ChromeConfig",
    "ChromePolicy",
    "ClusterMetrics",
    "ClusterService",
    "DRAMModel",
    "Engine",
    "EnvJob",
    "Environment",
    "EvaluationQueue",
    "ExperimentPlan",
    "ExperimentScale",
    "FeatureExtractor",
    "HashRing",
    "MixSpec",
    "ObsConfig",
    "Observation",
    "PolicySpec",
    "ResultCache",
    "GAP_TRACES",
    "MultiCoreSystem",
    "PAPER_SCHEMES",
    "POLICY_REGISTRY",
    "QTable",
    "RewardConfig",
    "ServeMetrics",
    "ServiceConfig",
    "SystemConfig",
    "SystemResult",
    "Trace",
    "available_environments",
    "available_experiments",
    "build_environment",
    "build_gap_trace",
    "build_spec_trace",
    "chrome_overhead",
    "env_job",
    "heterogeneous_mix",
    "homogeneous_mix",
    "make_nchrome_policy",
    "make_policy",
    "overhead_comparison",
    "register_environment",
    "register_experiment",
    "resolve_policy",
    "restore_agent",
    "run_configured",
    "run_experiment",
    "save_agent",
    "__version__",
]
