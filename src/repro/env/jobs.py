"""The one job kind the experiment engine schedules.

An :class:`EnvJob` names a registered environment adapter plus its
keyword parameters and nothing else.  Every experiment — paper
figures, ablations, serve, cluster, ops and toy — is a plan of
``EnvJob`` specs, so the engine's dedup, memo/disk caches and the
``--jobs 1`` vs ``--jobs N`` bit-identity checks hold for every domain
through one code path.

The spec is normalized when it is built: the parameters are bound
against the adapter factory's signature and its defaults filled in.
An unknown parameter raises ``TypeError`` while the plan is built (not
inside a worker), and two spellings of the same run — with and without
a defaulted parameter — are one job with one fingerprint.

The job owns its identity: :attr:`EnvJob.label` (progress lines),
:meth:`EnvJob.canonical` (dedup), :attr:`EnvJob.fingerprint` (the
on-disk result-cache key, including the adapter's ``code_version``)
and the obs session it runs under.  The result is whatever the
adapter's ``run()`` returns — the domain's own result object.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from dataclasses import dataclass
from typing import Dict, Tuple

from .registry import build_environment, environment_factory


@functools.lru_cache(maxsize=None)
def _signature(factory) -> inspect.Signature:
    return inspect.signature(factory)


@dataclass(frozen=True)
class EnvJob:
    """One schedulable run of a registered environment."""

    environment: str
    #: the adapter's keyword parameters, every default filled in, as a
    #: sorted spec tuple (hashable, literal)
    env_params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        factory = environment_factory(self.environment)
        bound = _signature(factory).bind(**dict(self.env_params))
        bound.apply_defaults()
        object.__setattr__(self, "env_params", tuple(sorted(bound.arguments.items())))

    @property
    def params(self) -> Dict[str, object]:
        """The adapter's keyword parameters, as a mapping."""
        return dict(self.env_params)

    @property
    def code_version(self) -> str:
        return environment_factory(self.environment).code_version

    @property
    def label(self) -> str:
        """Progress label: the environment and its non-default params,
        in the adapter's declaration order."""
        parameters = _signature(environment_factory(self.environment)).parameters
        params = self.params
        parts = [self.environment]
        for key, parameter in parameters.items():
            value = params[key]
            if value == parameter.default:
                continue
            if isinstance(value, tuple):
                parts.append(f"+{key}")
            else:
                parts.append(f"{key}={getattr(value, 'label', value)}")
        return " ".join(parts)

    def canonical(self) -> Tuple:
        """Stable literal-only identity (dedup key)."""
        return ("env", self.environment, self.env_params)

    @property
    def fingerprint(self) -> str:
        """Content hash for the on-disk result cache (spec + code version)."""
        payload = repr(("chrome-repro", self.code_version, self.canonical()))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def execute(self, obs=None):
        """Build the environment from the spec alone and run it.

        ``obs`` is an optional :class:`repro.obs.ObsConfig`; when given,
        the run records a telemetry session labelled with the job's
        fingerprint prefix and exports its artifacts, so ``--jobs N``
        workers each leave an aggregatable record.  The result is
        identical with and without it.
        """
        env = build_environment(self.environment, **self.params)
        if obs is None:
            return env.run()
        session = obs.session(f"{self.environment}-{self.fingerprint[:10]}")
        result = env.run(obs=session)
        session.export()
        return result


def env_job(environment: str, **params) -> EnvJob:
    """The job running ``environment`` with keyword ``params``."""
    return EnvJob(environment=environment, env_params=tuple(params.items()))
