"""Sim job specs: the trace mix and LLC policy a simulation runs.

A figure no longer *runs* simulations — it declares the jobs it needs
and a pure ``assemble`` step that turns the completed results into an
:class:`~repro.experiments.report.ExperimentResult` (see
:mod:`repro.experiments.engine`).  A sim job is an
:class:`~repro.env.jobs.EnvJob` of the ``sim`` environment
(:class:`~repro.sim.env.SimEnvironment`), whose spec is built from:

* :class:`MixSpec` — which traces to build (homogeneous copies of one
  workload, or one workload per core) and the mix seed;
* :class:`PolicySpec` — how to construct the LLC policy, by *factory
  name* plus literal parameters so the spec stays picklable and
  hashable (policy instances never cross job boundaries, which is what
  makes ``--jobs 1`` and ``--jobs 8`` bit-identical);
* the run-size fields copied from
  :class:`~repro.experiments.runner.ExperimentScale` (:func:`job_for`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..env.jobs import EnvJob, env_job
from ..sim.replacement.base import ReplacementPolicy
from ..traces.mixes import heterogeneous_mix, homogeneous_mix
from ..traces.trace import Trace
from .runner import ExperimentScale, chrome_with, resolve_policy, scaled_sampled_sets


@dataclass(frozen=True)
class MixSpec:
    """Which traces one job simulates (a frozen mix recipe)."""

    kind: str  # "homo" | "hetero"
    names: Tuple[str, ...]
    num_cores: int
    seed: int = 0

    @classmethod
    def homogeneous(cls, name: str, num_cores: int, seed: int = 0) -> "MixSpec":
        return cls(kind="homo", names=(name,), num_cores=num_cores, seed=seed)

    @classmethod
    def heterogeneous(cls, names: Tuple[str, ...], seed: int = 0) -> "MixSpec":
        return cls(kind="hetero", names=tuple(names), num_cores=len(names), seed=seed)

    def build(self, num_accesses: int, machine_scale: float) -> List[Trace]:
        if self.kind == "homo":
            return homogeneous_mix(
                self.names[0],
                self.num_cores,
                num_accesses,
                seed=self.seed,
                scale=machine_scale,
            )
        if self.kind == "hetero":
            return heterogeneous_mix(
                self.names, num_accesses, seed=self.seed, scale=machine_scale
            )
        raise ValueError(f"unknown mix kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "homo":
            return f"{self.names[0]}x{self.num_cores}"
        return "+".join(self.names)


# --- policy factories ---------------------------------------------------------

PolicyFactoryFn = Callable[..., ReplacementPolicy]

POLICY_FACTORIES: Dict[str, PolicyFactoryFn] = {}


def register_policy_factory(name: str, fn: PolicyFactoryFn) -> None:
    """Register a named policy factory usable from :class:`PolicySpec`.

    ``fn(machine_scale, **params)`` must build a *fresh* policy every
    call — jobs never share mutable policy state.
    """
    POLICY_FACTORIES[name] = fn


def _registry_factory(machine_scale: float, name: str) -> ReplacementPolicy:
    return resolve_policy(name, machine_scale)


def _chrome_with_factory(machine_scale: float, **overrides) -> ReplacementPolicy:
    # Scaled runs preserve training density unless a sweep pins the
    # sampled-set count explicitly (see resolve_policy's docstring).
    overrides.setdefault("sampled_sets", scaled_sampled_sets(machine_scale))
    return chrome_with(**overrides)


register_policy_factory("registry", _registry_factory)
register_policy_factory("chrome_with", _chrome_with_factory)


@dataclass(frozen=True)
class PolicySpec:
    """How a job constructs its LLC policy: factory name + literal params."""

    factory: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def named(cls, name: str) -> "PolicySpec":
        """A scheme from the policy registry (``lru``, ``chrome``, ...)."""
        return cls(factory="registry", params=(("name", name),))

    @classmethod
    def chrome_variant(cls, **overrides) -> "PolicySpec":
        """A :func:`~repro.experiments.runner.chrome_with` variant."""
        return cls(factory="chrome_with", params=tuple(sorted(overrides.items())))

    def build(self, machine_scale: float) -> ReplacementPolicy:
        try:
            fn = POLICY_FACTORIES[self.factory]
        except KeyError:
            raise KeyError(
                f"unknown policy factory {self.factory!r}; "
                f"available: {sorted(POLICY_FACTORIES)}"
            ) from None
        return fn(machine_scale, **dict(self.params))

    @property
    def label(self) -> str:
        params = dict(self.params)
        if self.factory == "registry":
            return str(params["name"])
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.factory}({inner})"


def job_for(
    scale: ExperimentScale,
    mix: MixSpec,
    policy: str | PolicySpec,
    prefetch: str = "nl_stride",
) -> EnvJob:
    """The sim job running a mix/policy pair at a scale's run size."""
    if isinstance(policy, str):
        policy = PolicySpec.named(policy)
    return env_job(
        "sim",
        mix=mix,
        policy=policy,
        prefetch=prefetch,
        machine_scale=scale.machine_scale,
        accesses_per_core=scale.accesses_per_core,
        warmup_per_core=scale.warmup_per_core,
    )
