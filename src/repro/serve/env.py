"""The serving layer as an :class:`~repro.env.protocol.Environment`.

The serve domain binding: a :class:`~repro.serve.service.CacheService`
request loop (including the resilient pipeline when fault/resilience
params are supplied) over a named workload stream.  The adapter's
keyword parameters are the whole spec of a serve job — workload,
policy, store geometry, client concurrency and every RNG seed — so a
job executes identically inline, in a ``--jobs N`` worker process, or
on a disk-cache replay.

Runtime assembly is delegated to :mod:`repro.serve.config`: the spec
becomes one :class:`~repro.serve.config.ServiceConfig` and ``run()``
is exactly :func:`~repro.serve.service.run_configured`, returning its
:class:`~repro.serve.metrics.ServeMetrics`.  The policy is built at
construction so the snapshot seam stays reachable before and after
the run.
"""

from __future__ import annotations

from typing import List

from ..core.persistence import agent_state
from ..env.driver import restore_agent_state
from ..env.protocol import Environment
from ..env.registry import register_environment
from .config import Params, ServiceConfig
from .metrics import ServeMetrics
from .service import run_configured
from .workloads import build_workload


class ServeEnvironment(Environment):
    """One cache service, run over a workload stream."""

    name = "serve"
    snapshot_kind = "serve-agent"
    code_version = "serve-2"

    def __init__(
        self,
        *,
        workload: str,
        policy: str,
        num_requests: int,
        warmup_requests: int,
        capacity_bytes: int,
        num_segments: int,
        num_clients: int = 8,
        seed: int = 0,
        workload_params: Params = (),
        policy_params: Params = (),
        checkpoint_every: int = 0,
        # fault model (FaultConfig.params()); empty = no injection
        fault_params: Params = (),
        # degradation policy (ResilienceConfig.params()); empty =
        # default resilience when faults are injected, plain path otherwise
        resilience_params: Params = (),
    ) -> None:
        self.num_requests = num_requests
        self.workload_params = workload_params
        self.config = ServiceConfig.from_params(
            capacity_bytes=capacity_bytes,
            num_segments=num_segments,
            policy=policy,
            policy_params=policy_params,
            num_clients=num_clients,
            warmup_requests=warmup_requests,
            checkpoint_every=checkpoint_every,
            seed=seed,
            workload_name=workload,
            fault_params=fault_params,
            resilience_params=resilience_params,
        )
        self.policy = self.config.build_policy()

    def run(self, obs=None) -> ServeMetrics:
        config = self.config
        requests = build_workload(
            config.workload_name,
            self.num_requests + config.warmup_requests,
            seed=config.seed,
            **dict(self.workload_params),
        )
        return run_configured(requests, config, policy=self.policy, obs=obs)

    def agent_states(self) -> List[dict]:
        return [agent_state(self.policy.agent, self.snapshot_kind)]

    def load_agent_states(
        self, states: List[dict], *, keep_rng: bool = False
    ) -> None:
        restore_agent_state(
            self.policy.agent, states[0], self.snapshot_kind, keep_rng=keep_rng
        )


register_environment("serve", ServeEnvironment)
