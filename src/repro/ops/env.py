"""Live operations as an :class:`~repro.env.protocol.Environment`.

The ops domain binding: a serve champion under the ops control loop
(shadow evaluation, guardrail, snapshot-ring rollback, injected bad
deploys).  The adapter's keyword parameters are the whole spec of an
ops job — the serve spec plus an ``ops_params`` spec tuple rebuilt
into an :class:`~repro.ops.config.OpsConfig`.  ``num_shards`` selects
the champion tier: ``0`` runs a single
:class:`~repro.serve.service.CacheService` (exactly
:func:`~repro.ops.controller.run_ops`), ``>= 1`` a
:class:`~repro.cluster.cluster.ClusterService` fleet (exactly
:func:`~repro.ops.controller.run_cluster_ops`), under the same
controller either way.

``run()`` returns the :class:`~repro.ops.controller.OpsResult`.  The
snapshot seam is the champion's (one agent, or one per shard); the
champion is built on first use, so ``run(obs=...)`` instruments it
only when the run is that first use.
"""

from __future__ import annotations

from typing import List

from ..env.protocol import Environment
from ..env.registry import register_environment
from ..serve.config import Params, ServiceConfig
from ..serve.service import configured_service
from ..serve.workloads import build_workload
from .config import OpsConfig
from .controller import OpsResult, drive_ops


class OpsEnvironment(Environment):
    """One ops-managed serve champion (single service or fleet)."""

    name = "ops"
    snapshot_kind = "serve-agent"
    code_version = "ops-1"

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
        # OpsConfig.params() spec tuples; empty = the inert default config
        ops_params: Params = (),
        # 0 = single-service champion; >= 1 = cluster fleet champion
        num_shards: int = 0,
        replication: int = 2,
        federate_every: int = 0,
    ) -> None:
        self.num_requests = num_requests
        self.workload_params = workload_params
        self.config = ServiceConfig(
            capacity_bytes=capacity_bytes,
            num_segments=num_segments,
            policy=policy,
            policy_params=policy_params,
            num_clients=num_clients,
            warmup_requests=warmup_requests,
            checkpoint_every=checkpoint_every,
            seed=seed,
            workload_name=workload,
        )
        self.ops = OpsConfig.from_params(ops_params)
        self.num_shards = num_shards
        self.replication = replication
        self.federate_every = federate_every
        self._champion = None

    def champion(self, obs=None):
        """The champion, built on first use (with ``obs`` if given then)."""
        if self._champion is None:
            if self.num_shards:
                from ..cluster.cluster import ClusterService

                self._champion = ClusterService(
                    self.config,
                    self.num_shards,
                    replication=self.replication,
                    federate_every=self.federate_every,
                    obs=obs,
                )
            else:
                self._champion = configured_service(self.config, obs=obs)
        elif obs is not None:
            raise ValueError("obs attaches only to an environment's first use")
        return self._champion

    def run(self, obs=None) -> OpsResult:
        config = self.config
        requests = build_workload(
            config.workload_name,
            self.num_requests + config.warmup_requests,
            seed=config.seed,
            **dict(self.workload_params),
        )
        champion = self.champion(obs)
        return drive_ops(champion, requests, config, self.ops, obs=obs)

    def agent_states(self) -> List[dict]:
        return self.champion().agent_states()

    def load_agent_states(
        self, states: List[dict], *, keep_rng: bool = False
    ) -> None:
        self.champion().load_agent_states(states, keep_rng=keep_rng)


register_environment("ops", OpsEnvironment)
