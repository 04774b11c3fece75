"""Experiment harness: regenerate every table and figure of the paper.

There is one way to run an experiment: every id maps to a plan builder
(``scale -> ExperimentPlan``) holding declarative jobs — every one an
:class:`~repro.env.jobs.EnvJob` naming an environment adapter (sim,
serve, cluster, ops, toy) and its parameters — plus a pure assembly
step, and the parallel :class:`Engine` runs the plan.  The public surface is the
registry (:func:`register_experiment`, :func:`available_experiments`,
:func:`get_plan`, :func:`run_experiment`), the job model and the
engine.  Importing this package eagerly registers every paper artifact,
the beyond-the-paper ablations and the domain experiments — no private
bootstrap calls.
"""

from .engine import Engine, EngineStats, ExperimentPlan
from .jobspec import MixSpec, PolicySpec, job_for, register_policy_factory
from .metrics import (
    MixMetrics,
    geometric_mean,
    speedup_percent,
    summarize,
    weighted_speedup,
)
from .progress import NullProgress, ProgressReporter
from .registry import (
    available_experiments,
    get_plan,
    register_experiment,
    run_experiment,
)
from .report import ExperimentResult, render, render_all
from .result_cache import ResultCache
from .runner import ExperimentScale, chrome_with, resolve_policy

from . import figures as _figures  # noqa: F401  (fig*/tab* ids)
from . import ablations as _ablations  # noqa: F401  (abl_* ids)
from ..serve import experiments as _serve_experiments  # noqa: F401  (serve_* ids)
from ..cluster import experiments as _cluster_experiments  # noqa: F401  (cluster id)
from ..ops import experiments as _ops_experiments  # noqa: F401  (serve_ops id)
from ..env import experiments as _env_experiments  # noqa: F401  (env_toy id)

__all__ = [
    "Engine",
    "EngineStats",
    "ExperimentPlan",
    "ExperimentResult",
    "ExperimentScale",
    "MixMetrics",
    "MixSpec",
    "NullProgress",
    "PolicySpec",
    "ProgressReporter",
    "ResultCache",
    "available_experiments",
    "chrome_with",
    "geometric_mean",
    "get_plan",
    "job_for",
    "register_experiment",
    "register_policy_factory",
    "render",
    "render_all",
    "resolve_policy",
    "run_experiment",
    "speedup_percent",
    "summarize",
    "weighted_speedup",
]
