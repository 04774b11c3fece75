"""The sharded fleet as an :class:`~repro.env.protocol.Environment`.

The cluster domain binding: per-shard serve policies behind the
consistent ring, with optional Q-table federation, hot-key splitting
and a scheduled shard kill.  The adapter's keyword parameters are the
whole spec of a fleet job; ``capacity_bytes`` is **total fleet
capacity**, split evenly across shards, so a 4-shard fleet and a
1-shard "fleet" of the same ``capacity_bytes`` cache the same number of
bytes (what makes federated-vs-isolated comparisons fair).

``run()`` drives the workload stream through the fleet and returns its
:class:`~repro.cluster.cluster.ClusterMetrics`.  The
snapshot seam is fleet-shaped — :meth:`ClusterService.agent_states`
already speaks the broadcast / per-shard restore discipline the ops
rollback uses, so the adapter delegates verbatim.  The fleet is built
on first use, so ``run(obs=...)`` instruments it only when the run is
that first use.
"""

from __future__ import annotations

from typing import List, Optional

from ..env.protocol import Environment
from ..env.registry import register_environment
from ..serve.config import Params, ServiceConfig, build_fault_config
from ..serve.service import drive_requests
from ..serve.workloads import build_workload
from .cluster import ClusterMetrics, ClusterService


class ClusterEnvironment(Environment):
    """One cache fleet, run over a workload stream."""

    name = "cluster"
    snapshot_kind = "serve-agent"
    code_version = "cluster-1"

    def __init__(
        self,
        *,
        workload: str,
        policy: str,
        num_requests: int,
        warmup_requests: int,
        capacity_bytes: int,
        num_segments: int,
        num_shards: int = 4,
        replication: int = 2,
        vnodes: int = 64,
        num_clients: int = 8,
        seed: int = 0,
        workload_params: Params = (),
        policy_params: Params = (),
        checkpoint_every: int = 0,
        federate_every: int = 0,
        hotkey_window: int = 0,
        hotkey_top_k: int = 8,
        hotkey_min_count: int = 16,
        fault_params: Params = (),
        kill_shard: int = -1,
        kill_fault_params: Params = (),
    ) -> None:
        self.num_requests = num_requests
        self.workload_params = workload_params
        #: the fleet-level runtime spec (per-shard variants derive from
        #: it inside ClusterService)
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
        )
        self._fleet_args = dict(
            num_shards=num_shards,
            replication=replication,
            vnodes=vnodes,
            federate_every=federate_every,
            hotkey_window=hotkey_window,
            hotkey_top_k=hotkey_top_k,
            hotkey_min_count=hotkey_min_count,
            kill_shard=kill_shard,
            kill_faults=build_fault_config(kill_fault_params),
        )
        self._cluster: Optional[ClusterService] = None

    def fleet(self, obs=None) -> ClusterService:
        """The fleet, built on first use (with ``obs`` if given then)."""
        if self._cluster is None:
            self._cluster = ClusterService(self.config, **self._fleet_args, obs=obs)
        elif obs is not None:
            raise ValueError("obs attaches only to an environment's first use")
        return self._cluster

    def run(self, obs=None) -> ClusterMetrics:
        config = self.config
        requests = build_workload(
            config.workload_name,
            self.num_requests + config.warmup_requests,
            seed=config.seed,
            **dict(self.workload_params),
        )
        cluster = self.fleet(obs)
        drive_requests(cluster, requests, config.num_clients)
        return cluster.finalize()

    def agent_states(self) -> List[dict]:
        return self.fleet().agent_states()

    def load_agent_states(
        self, states: List[dict], *, keep_rng: bool = False
    ) -> None:
        self.fleet().load_agent_states(states, keep_rng=keep_rng)


register_environment("cluster", ClusterEnvironment)
