"""ClusterService: a sharded cache fleet behind one request stream.

The serving layer scaled out: N independent
:class:`~repro.serve.service.CacheService` shards (each with its own
store, policy/agent, backend model, fault injector and resilience
state) behind a consistent-hash router
(:class:`~repro.cluster.ring.HashRing`), with hot-key splitting
(:mod:`~repro.cluster.hotkeys`) and periodic Q-table federation
(:mod:`~repro.cluster.federate`).

The determinism argument is the serve layer's, applied once more:

* the cluster exposes the same ``process(seq, req)`` surface as a
  single service, so the *same* driver
  (:func:`~repro.serve.service.drive_requests`) runs it — requests
  enter the router in global sequence order at any client count;
* every routing input is a pure function of that global sequence:
  virtual time is ``seq x inter_arrival``, shard liveness is a
  :class:`~repro.serve.faults.FaultInjector` outage oracle over virtual
  time, hot sets roll at fixed ``seq`` boundaries, federation fires at
  fixed ``seq`` boundaries, and the ring itself is static;
* therefore a mid-run shard kill reroutes, heals and re-balances
  bit-identically at ``num_clients=1`` and ``num_clients=64`` — the
  failover golden pins exactly this.

Shards never flip their own warmup gates (they are built with a ``-1``
sentinel): the cluster flips every shard recorder at the *global*
warmup boundary, so per-shard and fleet metrics share one measurement
window regardless of how traffic splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..serve.config import LatencyConfig, ServiceConfig
from ..serve.faults import FaultConfig, FaultInjector
from ..serve.metrics import (
    MetricsRecorder,
    ServeMetrics,
    TenantMetrics,
    percentile,
)
from ..serve.service import CacheService, drive_requests
from ..serve.workloads import Request
from ..sim.address import mix_hash
from .federate import federate_agents
from .hotkeys import HotKeyDetector
from .ring import HashRing


@dataclass
class ClusterMetrics:
    """Complete, picklable result of one cluster run.

    ``fleet`` aggregates the shard recorders exactly (integer sums, a
    re-sorted union of the raw latency samples for the percentiles —
    not percentile-of-percentiles); ``per_shard`` keeps each shard's
    own :class:`ServeMetrics` for imbalance analysis.
    """

    fleet: ServeMetrics
    per_shard: List[ServeMetrics] = field(default_factory=list)
    #: requests routed to each shard (post-failover, post-splitting)
    routed: List[int] = field(default_factory=list)
    #: requests whose static primary was dead at arrival time
    reroutes: int = 0
    #: requests with no live replica at all (dropped, served by no shard)
    unroutable: int = 0
    #: liveness-mask transitions observed (kill + heal = 2)
    ring_changes: int = 0
    federations: int = 0
    hot_windows: int = 0
    hot_promotions: int = 0
    #: hot-key requests sent to a non-primary replica
    hot_splits: int = 0
    #: evictions of currently-hot keys (capacity losing to the hot set)
    hot_evictions: int = 0


class ClusterService:
    """Consistent-hash fleet with the single-service ``process`` surface."""

    def __init__(
        self,
        config: ServiceConfig,
        num_shards: int,
        *,
        replication: int = 2,
        vnodes: int = 64,
        federate_every: int = 0,
        hotkey_window: int = 0,
        hotkey_top_k: int = 8,
        hotkey_min_count: int = 16,
        kill_shard: int = -1,
        kill_faults: Optional[FaultConfig] = None,
        obs=None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        per_shard_capacity = config.capacity_bytes // num_shards
        if per_shard_capacity < config.num_segments:
            raise ValueError(
                "fleet capacity too small: each shard needs at least one "
                "byte per segment"
            )
        self.config = config
        self.num_shards = num_shards
        self.latency = config.latency or LatencyConfig()
        self.warmup_requests = config.warmup_requests
        self.ring = HashRing(
            num_shards,
            replication=replication,
            vnodes=vnodes,
            seed=mix_hash((config.seed << 4) ^ 0x51A6),
        )
        # N shards from one config: same shape, per-shard derived seeds
        # (exploration RNG and origin-chaos streams never shared).
        shard_base = replace(config, capacity_bytes=per_shard_capacity)
        self.recorders: List[MetricsRecorder] = []
        self.shards: List[CacheService] = []
        self._policies = []
        for idx in range(num_shards):
            shard_cfg = shard_base.for_shard(idx)
            policy = shard_cfg.build_policy()
            recorder = MetricsRecorder(
                policy=config.policy, workload=config.workload_name
            )
            store = shard_cfg.build_store(policy)
            # warmup_requests=-1: the sentinel never equals a real seq,
            # so the shard's own warmup flip never fires — the cluster
            # flips all recorders at the global warmup boundary below.
            self.shards.append(
                CacheService(
                    store,
                    recorder=recorder,
                    warmup_requests=-1,
                    config=shard_cfg,
                )
            )
            self.recorders.append(recorder)
            self._policies.append(policy)
        # Shard-kill oracle: outage windows of a FaultConfig, evaluated
        # in virtual time — liveness is a pure function of now_ms.
        self._kill_shard = kill_shard if kill_faults is not None else -1
        self._kill_oracle = (
            FaultInjector(kill_faults)
            if kill_faults is not None and 0 <= kill_shard < num_shards
            else None
        )
        self._all_live: Tuple[bool, ...] = (True,) * num_shards
        self._last_live: Tuple[bool, ...] = self._all_live
        # Hot-key detection needs replicas to split across.
        if hotkey_window > 0 and self.ring.replication > 1:
            self.hotkeys: Optional[HotKeyDetector] = HotKeyDetector(
                window=hotkey_window,
                top_k=hotkey_top_k,
                min_count=hotkey_min_count,
            )
            for shard in self.shards:
                shard.store.add_evict_listener(self.hotkeys.on_evict)
        else:
            self.hotkeys = None
        self.federate_every = federate_every
        self._agents = [
            p.agent for p in self._policies if hasattr(p, "agent")
        ]
        if len(self._agents) != num_shards:
            self._agents = []  # federation is all-or-nothing
        # cluster-level counters
        self.routed = [0] * num_shards
        self.reroutes = 0
        self.unroutable = 0
        self.ring_changes = 0
        self.federations = 0
        self.hot_splits = 0
        self._measuring = config.warmup_requests == 0
        # Live-operations tap (repro.ops): same per-request seam the
        # single service exposes — None by default, one attribute test.
        self._ops_tap = None
        self._fleet_requests = 0
        self._fleet_hits = 0
        self._fleet_bytes = 0
        self._fleet_bytes_hit = 0
        self._curve: List[Tuple[int, float, float]] = []
        for recorder in self.recorders:
            recorder.set_measuring(self._measuring)
        self._obs = obs
        if obs is not None:
            self._obs_window = max(1, obs.config.serve_window)
            self._obs_next = self._obs_window - 1
            obs.tracer.name_thread(0, "cluster")
            obs.timeline.record("ring_topology", **self.ring.describe())
        else:
            self._obs_window = 0
            self._obs_next = -1

    # --- liveness -----------------------------------------------------------------

    def live_mask(self, now_ms: float) -> Tuple[bool, ...]:
        """Which shards are up at ``now_ms`` (pure in virtual time)."""
        if self._kill_oracle is None:
            return self._all_live
        down, _ = self._kill_oracle.outage_state(now_ms)
        if not down:
            return self._all_live
        mask = list(self._all_live)
        mask[self._kill_shard] = False
        return tuple(mask)

    # --- request path ---------------------------------------------------------------

    def process(self, seq: int, req: Request) -> bool:
        """Route one request to its shard at its virtual arrival time.

        Same contract as :meth:`CacheService.process`, so
        :func:`~repro.serve.service.drive_requests` runs a cluster
        exactly as it runs one service.
        """
        if seq == self.warmup_requests:
            self._measuring = True
            for recorder in self.recorders:
                recorder.set_measuring(True)
        now_ms = seq * self.latency.inter_arrival_ms
        live = self.live_mask(now_ms)
        if live != self._last_live:
            self.ring_changes += 1
            self._last_live = live
            if self._obs is not None:
                down = [i for i, up in enumerate(live) if not up]
                self._obs.timeline.record(
                    "ring_change", seq=seq, now_ms=now_ms, down_shards=down,
                    live=int(sum(live)),
                )
                self._obs.tracer.instant(
                    "ring_change", now_ms * 1000.0,
                    args={"down": down},
                )
        hotkeys = self.hotkeys
        if hotkeys is not None and seq > 0 and seq % hotkeys.window == 0:
            hot = hotkeys.roll()
            if self._obs is not None:
                self._obs.timeline.record(
                    "hot_window", seq=seq, now_ms=now_ms,
                    hot_keys=len(hot),
                    hot_evictions=hotkeys.hot_evictions,
                )
        pref = self.ring.preference(req.key, live=live)
        if not pref:
            self.unroutable += 1
            if self._ops_tap is not None:
                self._ops_tap(seq, req)
            return False
        if hotkeys is not None and len(pref) > 1 and hotkeys.is_hot(req.key):
            # Split the hot key: rotate over its live replica set by
            # global sequence — deterministic round-robin load spread.
            target = pref[seq % len(pref)]
            if target != pref[0]:
                self.hot_splits += 1
        else:
            target = pref[0]
        if not live[self.ring.primary(req.key)]:
            self.reroutes += 1
        self.routed[target] += 1
        if hotkeys is not None:
            hotkeys.observe(req.key)
        hit = self.shards[target].process(seq, req)
        if self._measuring:
            self._fleet_requests += 1
            self._fleet_bytes += req.size
            if hit:
                self._fleet_hits += 1
                self._fleet_bytes_hit += req.size
            every = self.config.checkpoint_every
            if every and self._fleet_requests % every == 0:
                self._curve.append(
                    (
                        self._fleet_requests,
                        self._fleet_hits / self._fleet_requests,
                        self._fleet_bytes_hit / self._fleet_bytes,
                    )
                )
        if self._agents and self.federate_every > 0:
            if (seq + 1) % self.federate_every == 0:
                federate_agents(self._agents)
                self.federations += 1
                if self._obs is not None:
                    self._obs.timeline.record(
                        "federation", seq=seq, now_ms=now_ms,
                        round=self.federations, agents=len(self._agents),
                    )
        if self._obs is not None and seq == self._obs_next:
            self._obs_sample(seq, now_ms, live)
        if self._ops_tap is not None:
            self._ops_tap(seq, req)
        return hit

    # --- live-operations seams (repro.ops) ------------------------------------------

    def attach_ops_tap(self, tap) -> None:
        """Install the per-request ops callback (``tap(seq, req)``).

        Fires inside the sequenced section after the fleet has fully
        processed the request — including unroutable drops, so window
        boundaries land at the same global sequence numbers whether or
        not shards are down.
        """
        self._ops_tap = tap

    def signal_recorders(self) -> List[MetricsRecorder]:
        """All shard recorders; the SignalReader sums windows fleet-wide."""
        return list(self.recorders)

    def agent_states(self) -> List[dict]:
        """Snapshot every shard agent (index order) for the ops ring."""
        if not self._agents:
            raise ValueError(
                f"policy {self.config.policy!r} has no learning agents; "
                "ops hot-swap/rollback require a learned (chrome) fleet"
            )
        from ..core.persistence import agent_state

        return [agent_state(a, kind="serve-agent") for a in self._agents]

    def load_agent_states(self, states: List[dict], *, keep_rng: bool = False) -> None:
        """Swap learned state into the fleet at an epoch boundary.

        ``len(states) == num_shards`` restores shard-for-shard (the
        rollback path: every shard returns to its own last-known-good
        table).  ``len(states) == 1`` broadcasts one state to every
        shard (the promotion path: a single challenger table deploys
        fleet-wide).  ``keep_rng`` follows the single-service contract
        — promotion keeps each shard's own RNG stream and counters,
        rollback restores everything.
        """
        if not self._agents:
            raise ValueError(
                f"policy {self.config.policy!r} has no learning agents; "
                "ops hot-swap/rollback require a learned (chrome) fleet"
            )
        if len(states) == 1 and self.num_shards > 1:
            states = states * self.num_shards
        if len(states) != self.num_shards:
            raise ValueError(
                f"expected 1 or {self.num_shards} agent states, got {len(states)}"
            )
        from ..env.driver import restore_agent_state

        for agent, state in zip(self._agents, states):
            restore_agent_state(agent, state, "serve-agent", keep_rng=keep_rng)

    # --- observability --------------------------------------------------------------

    def _obs_sample(self, seq: int, now_ms: float, live: Tuple[bool, ...]) -> None:
        """One fleet timeline row per ``serve_window`` global requests."""
        obs = self._obs
        self._obs_next += self._obs_window
        breaker_states: Dict[int, Dict[int, str]] = {}
        for idx, shard in enumerate(self.shards):
            if shard.resilience is not None:
                states = shard.resilience.breaker_states()
                if states:
                    breaker_states[idx] = states
        row = {
            "seq": seq,
            "now_ms": now_ms,
            "live": int(sum(live)),
            "routed": list(self.routed),
            "reroutes": self.reroutes,
            "hot_splits": self.hot_splits,
            "federations": self.federations,
            "fleet_requests": self._fleet_requests,
            "fleet_object_hit_ratio": (
                self._fleet_hits / self._fleet_requests
                if self._fleet_requests
                else 0.0
            ),
        }
        if breaker_states:
            row["breaker_states"] = {
                str(idx): states for idx, states in breaker_states.items()
            }
        if self.hotkeys is not None:
            row["hot_keys"] = len(self.hotkeys.hot_keys)
        obs.timeline.record("cluster_window", **row)
        obs.tracer.counter(
            "cluster.live_shards", now_ms * 1000.0, {"live": row["live"]}
        )

    def _obs_summary(self, metrics: ClusterMetrics) -> None:
        obs = self._obs
        if obs is None:
            return
        fleet = metrics.fleet
        obs.timeline.record(
            "cluster_summary",
            policy=fleet.policy,
            workload=fleet.workload,
            num_shards=self.num_shards,
            requests=fleet.requests,
            object_hit_ratio=fleet.object_hit_ratio,
            byte_hit_ratio=fleet.byte_hit_ratio,
            p99_latency_ms=fleet.p99_latency_ms,
            reroutes=metrics.reroutes,
            ring_changes=metrics.ring_changes,
            federations=metrics.federations,
            hot_splits=metrics.hot_splits,
            hot_evictions=metrics.hot_evictions,
            per_shard_byte_hit=[m.byte_hit_ratio for m in metrics.per_shard],
        )
        reg = obs.registry
        reg.counter("cluster.requests").inc(fleet.requests)
        reg.counter("cluster.reroutes").inc(metrics.reroutes)
        reg.counter("cluster.ring_changes").inc(metrics.ring_changes)
        reg.counter("cluster.federations").inc(metrics.federations)
        reg.counter("cluster.hot_splits").inc(metrics.hot_splits)
        reg.gauge("cluster.byte_hit_ratio").set(fleet.byte_hit_ratio)
        reg.gauge("cluster.p99_latency_ms").set(fleet.p99_latency_ms)

    # --- results --------------------------------------------------------------------

    def finalize(self) -> ClusterMetrics:
        """Per-shard and fleet-aggregate metrics for the completed run."""
        per_shard: List[ServeMetrics] = []
        latencies: List[float] = []
        degraded: List[float] = []
        for recorder, policy in zip(self.recorders, self._policies):
            m = recorder.finalize()
            m.telemetry = dict(policy.telemetry())
            per_shard.append(m)
            latencies.extend(recorder.latency_samples())
            degraded.extend(recorder.degraded_latency_samples())
        fleet = _aggregate_fleet(
            self.config.policy,
            self.config.workload_name,
            per_shard,
            latencies,
            degraded,
        )
        fleet.curve = list(self._curve)
        metrics = ClusterMetrics(
            fleet=fleet,
            per_shard=per_shard,
            routed=list(self.routed),
            reroutes=self.reroutes,
            unroutable=self.unroutable,
            ring_changes=self.ring_changes,
            federations=self.federations,
            hot_windows=self.hotkeys.windows if self.hotkeys else 0,
            hot_promotions=self.hotkeys.promotions if self.hotkeys else 0,
            hot_splits=self.hot_splits,
            hot_evictions=self.hotkeys.hot_evictions if self.hotkeys else 0,
        )
        self._obs_summary(metrics)
        return metrics


_SUM_FIELDS = (
    "requests",
    "hits",
    "bytes_requested",
    "bytes_hit",
    "backend_fetches",
    "backend_bytes",
    "admitted",
    "admitted_bytes",
    "bypassed",
    "bypassed_bytes",
    "evictions",
    "evicted_bytes",
    "origin_served",
    "shed",
    "stale_served",
    "errors",
    "retries",
    "timeouts",
    "breaker_opens",
    "breaker_denied",
)


def _aggregate_fleet(
    policy: str,
    workload: str,
    per_shard: Sequence[ServeMetrics],
    latencies: List[float],
    degraded: List[float],
) -> ServeMetrics:
    """Exact fleet roll-up of finalized shard metrics.

    Integer counters sum, ``peak_outstanding`` takes the max (it is a
    peak over per-shard backends), per-tenant slices merge, and the
    latency percentiles are recomputed over the sorted union of the raw
    samples — the fleet p99 is the true fleet p99.
    """
    fleet = ServeMetrics(policy=policy, workload=workload)
    for m in per_shard:
        for name in _SUM_FIELDS:
            setattr(fleet, name, getattr(fleet, name) + getattr(m, name))
        if m.peak_outstanding > fleet.peak_outstanding:
            fleet.peak_outstanding = m.peak_outstanding
        for tenant, tm in m.per_tenant.items():
            agg = fleet.per_tenant.get(tenant)
            if agg is None:
                agg = fleet.per_tenant[tenant] = TenantMetrics()
            agg.requests += tm.requests
            agg.hits += tm.hits
            agg.bytes_requested += tm.bytes_requested
            agg.bytes_hit += tm.bytes_hit
    if latencies:
        ordered = sorted(latencies)
        fleet.mean_latency_ms = sum(ordered) / len(ordered)
        fleet.p50_latency_ms = percentile(ordered, 0.50)
        fleet.p99_latency_ms = percentile(ordered, 0.99)
    if degraded:
        ordered = sorted(degraded)
        fleet.degraded_requests = len(ordered)
        fleet.degraded_p99_latency_ms = percentile(ordered, 0.99)
    return fleet


def run_cluster(
    requests: Sequence[Request],
    config: ServiceConfig,
    num_shards: int,
    *,
    replication: int = 2,
    vnodes: int = 64,
    federate_every: int = 0,
    hotkey_window: int = 0,
    hotkey_top_k: int = 8,
    hotkey_min_count: int = 16,
    kill_shard: int = -1,
    kill_faults: Optional[FaultConfig] = None,
    obs=None,
) -> ClusterMetrics:
    """Run a request stream through a sharded fleet, end to end.

    ``config`` describes the *fleet*: ``capacity_bytes`` is total fleet
    capacity (split evenly), ``num_clients`` shapes the driver only —
    the returned :class:`ClusterMetrics` is bit-identical at any client
    count, shard kills and all.
    """
    cluster = ClusterService(
        config,
        num_shards,
        replication=replication,
        vnodes=vnodes,
        federate_every=federate_every,
        hotkey_window=hotkey_window,
        hotkey_top_k=hotkey_top_k,
        hotkey_min_count=hotkey_min_count,
        kill_shard=kill_shard,
        kill_faults=kill_faults,
        obs=obs,
    )
    drive_requests(cluster, requests, config.num_clients)
    return cluster.finalize()
