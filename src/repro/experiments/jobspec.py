"""Declarative simulation-job specs for the parallel experiment engine.

A figure no longer *runs* simulations — it declares the frozen
:class:`SimJob` specs it needs and a pure ``assemble`` step that turns
the completed results into an
:class:`~repro.experiments.report.ExperimentResult` (see
:mod:`repro.experiments.engine`).  A job is entirely self-describing:

* :class:`MixSpec` — which traces to build (homogeneous copies of one
  workload, or one workload per core) and the mix seed;
* :class:`PolicySpec` — how to construct the LLC policy, by *factory
  name* plus literal parameters so the spec stays picklable and
  hashable (policy instances never cross job boundaries, which is what
  makes ``--jobs 1`` and ``--jobs 8`` bit-identical);
* the run-size fields copied from
  :class:`~repro.experiments.runner.ExperimentScale`.

:func:`execute_job` is the single entry point workers call; it builds
traces, policy and machine from the spec alone, so a job executes
identically inline, in a worker process, or on a cache replay.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..sim.multicore import MultiCoreSystem, SystemConfig, SystemResult
from ..sim.replacement.base import ReplacementPolicy
from ..traces.mixes import heterogeneous_mix, homogeneous_mix
from ..traces.trace import Trace
from .runner import ExperimentScale, chrome_with, resolve_policy, scaled_sampled_sets

#: Bump when simulator/policy semantics change in a way that should
#: invalidate previously cached simulation results (see
#: :mod:`repro.experiments.result_cache`).
CODE_VERSION = "2"


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


@dataclass(frozen=True)
class SimJob:
    """One schedulable simulation: (mix, policy, prefetch, run size).

    Frozen and hashable so the engine can deduplicate identical jobs
    across figures and key the on-disk result cache.
    """

    mix: MixSpec
    policy: PolicySpec
    prefetch: str = "nl_stride"
    machine_scale: float = ExperimentScale.machine_scale
    accesses_per_core: int = ExperimentScale.accesses_per_core
    warmup_per_core: int = ExperimentScale.warmup_per_core

    @property
    def label(self) -> str:
        return f"{self.mix.label} {self.policy.label} {self.prefetch}"

    def canonical(self) -> Tuple:
        """A stable, literal-only tuple identifying this job."""
        return (
            self.mix.kind,
            self.mix.names,
            self.mix.num_cores,
            self.mix.seed,
            self.policy.factory,
            self.policy.params,
            self.prefetch,
            self.machine_scale,
            self.accesses_per_core,
            self.warmup_per_core,
        )


def job_for(
    scale: ExperimentScale,
    mix: MixSpec,
    policy: str | PolicySpec,
    prefetch: str = "nl_stride",
) -> SimJob:
    """Bind a mix/policy pair to a scale's run-size fields."""
    if isinstance(policy, str):
        policy = PolicySpec.named(policy)
    return SimJob(
        mix=mix,
        policy=policy,
        prefetch=prefetch,
        machine_scale=scale.machine_scale,
        accesses_per_core=scale.accesses_per_core,
        warmup_per_core=scale.warmup_per_core,
    )


def job_fingerprint(job, code_version: str = CODE_VERSION) -> str:
    """Content hash for the on-disk result cache (spec + code version).

    Works for any job kind exposing ``canonical()``; non-simulation
    jobs namespace their tuple (e.g. serve jobs lead with ``"serve"``
    and their own code version) so kinds can never collide.
    """
    payload = repr(("chrome-repro", code_version, job.canonical()))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def execute_job(job, obs=None):
    """Run one job from its spec alone (pure given the spec).

    Every job builds its own traces/requests and a fresh policy, each
    seeded by the spec, so results do not depend on which process
    executes the job or in which order — the engine's determinism
    guarantee.

    ``obs`` is an optional :class:`repro.obs.ObsConfig`; when given,
    the executing process builds its own session, runs instrumented,
    and exports artifacts labeled by the job's fingerprint — which is
    what lets ``--jobs N`` worker processes each leave an aggregatable
    record without sharing any live state.  Results are identical with
    and without it.

    :class:`SimJob` is executed here directly; any other job kind
    (e.g. :class:`repro.serve.jobs.ServeJob`) supplies its own
    ``execute()`` method and is dispatched to it, so the engine's
    scheduling, dedup and caching are shared by every subsystem.
    """
    if not isinstance(job, SimJob):
        execute = getattr(job, "execute", None)
        if callable(execute):
            return execute(obs=obs) if obs is not None else execute()
        raise TypeError(
            f"cannot execute job of type {type(job).__name__}: expected a "
            "SimJob or a spec with an execute() method"
        )
    total = job.accesses_per_core + job.warmup_per_core
    traces = job.mix.build(total, job.machine_scale)
    config = SystemConfig(num_cores=job.mix.num_cores, scale=job.machine_scale)
    session = None
    if obs is not None:
        label = f"sim-{job.mix.label}-{job.policy.label}-{job_fingerprint(job)[:10]}"
        session = obs.session(label)
    system = MultiCoreSystem(
        config,
        llc_policy=job.policy.build(job.machine_scale),
        prefetch_config=job.prefetch,
        obs=session,
    )
    result = system.run(
        traces,
        max_accesses_per_core=total,
        warmup_accesses=job.warmup_per_core,
    )
    if session is not None:
        session.export()
    return result
