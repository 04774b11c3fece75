"""Public experiment registry.

Every experiment id maps to exactly one plan builder: a function from
:class:`~repro.experiments.runner.ExperimentScale` to an
:class:`~repro.experiments.engine.ExperimentPlan`.  Experiments register
themselves here at import time (importing :mod:`repro.experiments` is
enough — no private bootstrap calls), and the CLI, benchmark harness
and library users all go through the same entry points:

* :func:`register_experiment` — add (or override) an experiment by id;
* :func:`available_experiments` — sorted ids;
* :func:`get_plan` — look up an id's plan builder;
* :func:`run_experiment` — build an id's plan and run it on an engine.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .engine import Engine, ExperimentPlan
from .report import ExperimentResult
from .runner import ExperimentScale

PlanFn = Callable[[ExperimentScale], ExperimentPlan]

#: id -> plan builder
PLANS: Dict[str, PlanFn] = {}


def register_experiment(experiment_id: str, plan: PlanFn) -> None:
    """Register an experiment id (last registration wins)."""
    PLANS[experiment_id] = plan


def available_experiments() -> List[str]:
    """Sorted ids of every registered experiment."""
    return sorted(PLANS)


def get_plan(experiment_id: str) -> PlanFn:
    try:
        return PLANS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {available_experiments()}"
        ) from None


def run_experiment(
    experiment_id: str,
    scale: Optional[ExperimentScale] = None,
    engine: Optional[Engine] = None,
) -> ExperimentResult:
    """Regenerate one experiment by id on ``engine`` (serial by default)
    at ``scale`` (default: :meth:`ExperimentScale.from_env`)."""
    plan = get_plan(experiment_id)(scale or ExperimentScale.from_env())
    return (engine or Engine(workers=1)).run_plan(plan)
