"""The unified serve runtime configuration: one frozen spec per service.

:class:`ServiceConfig` is the single frozen description of one service
end to end:

* **one object describes one service** — store geometry, policy (by
  name + literal params, so the config stays picklable and hashable),
  driver concurrency, warmup, checkpointing, the virtual-time
  :class:`LatencyConfig`, and the optional
  :class:`~repro.serve.faults.FaultConfig` /
  :class:`~repro.serve.resilience.ResilienceConfig`.  It is the only
  source of a :class:`~repro.serve.service.CacheService`'s latency
  model, faults, resilience and warmup boundary;
* **builders live with the config** — :meth:`ServiceConfig.build_policy`
  reproduces the job-spec RNG-seeding discipline,
  :meth:`ServiceConfig.from_params` accepts the spec-tuple forms the
  environment adapters carry, and :meth:`ServiceConfig.for_shard`
  derives a per-shard variant (fresh policy/fault seeds, same shape)
  so a cluster builds N shards from one config;
* **one way to run** — :func:`~repro.serve.service.run_configured`
  takes ``(requests, config)`` (plus an optional pre-built policy for
  warm starts), and :func:`~repro.serve.service.configured_service`
  is the one construction path for a configured single service.

:class:`LatencyConfig` moved here from :mod:`repro.serve.service`
(which re-exports it) so the config module has no import cycle with
the service it describes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..sim.address import mix_hash
from .faults import FaultConfig
from .policies import ServePolicy, make_serve_policy
from .resilience import ResilienceConfig

#: the spec-tuple form environment parameters carry: ((name, value), ...)
Params = Tuple[Tuple[str, object], ...]

#: policies whose exploration RNG is seeded from the config seed
SEEDED_POLICIES = frozenset({"chrome"})


@dataclass(frozen=True)
class LatencyConfig:
    """Virtual-time latency model (milliseconds / bytes-per-ms)."""

    hit_base_ms: float = 0.1
    hit_bytes_per_ms: float = 4 * 1024 * 1024  # ~4 GB/s from local cache
    backend_base_ms: float = 6.0
    backend_bytes_per_ms: float = 256 * 1024  # ~256 MB/s origin path
    queue_penalty_ms: float = 0.25  # per outstanding backend fetch
    inter_arrival_ms: float = 0.5

    def hit_latency(self, size: int) -> float:
        return self.hit_base_ms + size / self.hit_bytes_per_ms


def build_fault_config(fault_params: Params) -> Optional[FaultConfig]:
    """FaultConfig from spec tuples (None when no faults requested)."""
    if not fault_params:
        return None
    return FaultConfig(**dict(fault_params))


def build_resilience_config(
    resilience_params: Params,
) -> Optional[ResilienceConfig]:
    """ResilienceConfig from spec tuples.

    ``("preset", "none")`` selects :meth:`ResilienceConfig.none` (the
    no-resilience control group) with any remaining params overriding
    it; an empty tuple returns None, which means *default* resilience
    when faults are injected and the plain request path otherwise.
    """
    if not resilience_params:
        return None
    params = dict(resilience_params)
    preset = params.pop("preset", "default")
    if preset == "none":
        base = ResilienceConfig.none()
        return replace(base, **params) if params else base
    if preset != "default":
        raise ValueError(f"unknown resilience preset {preset!r}")
    return ResilienceConfig(**params)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one :class:`~repro.serve.service.CacheService` run needs.

    Frozen and literal-only (policies by name, sub-configs as frozen
    dataclasses), so a config can cross process boundaries and key
    caches exactly like job specs do.
    """

    capacity_bytes: int
    num_segments: int
    policy: str = "lru"
    policy_params: Params = ()
    num_clients: int = 8
    warmup_requests: int = 0
    checkpoint_every: int = 0
    seed: int = 0
    workload_name: str = ""
    latency: Optional[LatencyConfig] = None
    faults: Optional[FaultConfig] = None
    resilience: Optional[ResilienceConfig] = None

    @classmethod
    def from_params(
        cls,
        *,
        fault_params: Params = (),
        resilience_params: Params = (),
        **kwargs,
    ) -> "ServiceConfig":
        """Build from the spec-tuple forms the environment adapters carry.

        ``fault_params`` / ``resilience_params`` follow the serve
        adapter's conventions (empty = none / default); every other
        keyword maps straight onto a :class:`ServiceConfig` field.
        """
        return cls(
            faults=build_fault_config(fault_params),
            resilience=build_resilience_config(resilience_params),
            **kwargs,
        )

    # --- builders -----------------------------------------------------------------

    def build_policy(self) -> ServePolicy:
        """Fresh policy instance, RNG-seeded from this config.

        Mirrors the job-spec discipline: learned policies derive their
        exploration RNG purely from (config seed, policy name), so two
        configs differing only in seed train differently, and the same
        config always trains identically.
        """
        params = dict(self.policy_params)
        if self.policy in SEEDED_POLICIES:
            params.setdefault(
                "seed", mix_hash((self.seed << 8) ^ len(self.policy))
            )
        return make_serve_policy(self.policy, **params)

    def build_store(self, policy: Optional[ServePolicy] = None):
        """Fresh :class:`~repro.serve.store.ObjectStore` for this config."""
        from .store import ObjectStore

        return ObjectStore(
            self.capacity_bytes, self.num_segments, policy or self.build_policy()
        )

    # --- derivation ---------------------------------------------------------------

    def for_shard(self, shard_idx: int) -> "ServiceConfig":
        """A per-shard variant of this config (cluster shard construction).

        The shard keeps the shape (geometry, policy, latency model,
        resilience) but derives fresh seeds — its own exploration RNG
        stream and its own fault-decision stream — as pure functions of
        (config seed, shard index), so a fleet of shards never shares
        randomness yet rebuilds identically in any process.
        """
        derived_seed = mix_hash((self.seed << 20) ^ (shard_idx * 0x9E3779B9) ^ 0xC1)
        faults = self.faults
        if faults is not None:
            faults = replace(
                faults, seed=mix_hash((faults.seed << 20) ^ (shard_idx * 0x85EB) ^ 0xC2)
            )
        return replace(self, seed=derived_seed, faults=faults)

    def for_challenger(
        self,
        policy: Optional[str] = None,
        policy_params: Optional[Params] = None,
    ) -> "ServiceConfig":
        """The shadow-challenger variant of this config (ops layer).

        A challenger mirrors the champion's geometry and latency model
        but runs its own policy (or the same policy under a fresh seed
        when ``policy`` is omitted) against its own isolated store.  It
        never sees injected faults or resilience machinery — shadow
        evaluation compares *cache policies*, and the champion's fault
        stream must not leak into the challenger's reward signal — and
        keeps no metric checkpoints (only per-window deltas).  The
        derived seed is a pure function of the champion seed, so shadow
        runs rebuild identically in any process.
        """
        return replace(
            self,
            policy=policy if policy is not None else self.policy,
            policy_params=(
                policy_params if policy_params is not None else self.policy_params
            ),
            seed=mix_hash((self.seed << 24) ^ 0xC7A11E),
            checkpoint_every=0,
            faults=None,
            resilience=None,
        )
