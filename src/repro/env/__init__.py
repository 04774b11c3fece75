"""One Environment protocol for every CHROME domain.

``repro.env`` is the seam between the shared RL core and the domains
that drive it:

* :mod:`repro.env.protocol` — the frozen :class:`Observation` record
  and the :class:`Environment` run/snapshot contract;
* :mod:`repro.env.driver` — :class:`AgentCore`, the single
  implementation of Algorithm 1's decision/training pipeline that the
  LLC policy, the serve agent and every new domain bind;
* :mod:`repro.env.registry` — named adapter factories; registering an
  adapter opts it into the conformance suite;
* :mod:`repro.env.toy` — the existence proof: a single-tier DRAM-row
  cache as one small adapter file;
* :mod:`repro.env.jobs` — :class:`EnvJob`, the one job kind the
  experiment engine schedules: a registered environment plus its
  normalized parameters;
* :mod:`repro.env.experiments` — the ``env_toy`` experiment on the
  parallel engine.

This package's top level imports only leaf modules: the domain
adapters (``repro.sim.env``, ``repro.serve.env``, ``repro.cluster.env``,
``repro.ops.env``) are loaded lazily on first registry use, because the
domains themselves import :mod:`repro.env.driver`.
"""

from .driver import AgentCore, restore_agent_state, run_steps
from .jobs import EnvJob, env_job
from .protocol import Environment, Observation
from .registry import (
    available_environments,
    build_environment,
    register_environment,
)

__all__ = [
    "AgentCore",
    "EnvJob",
    "Environment",
    "Observation",
    "available_environments",
    "build_environment",
    "env_job",
    "register_environment",
    "restore_agent_state",
    "run_steps",
]
