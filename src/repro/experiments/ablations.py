"""Ablation experiments beyond the paper's own sensitivity studies.

The paper ablates concurrency awareness (N-CHROME, Fig. 12), state
features (Fig. 15), EQ depth (Table VII) and hyper-parameters
(Fig. 16).  DESIGN.md calls out four further design choices this module
studies:

* ``abl_bypass``   — holistic bypassing: CHROME with the BYPASS action
  removed (replacement-only RL agent);
* ``abl_prefetch_rewards`` — demand/prefetch reward differentiation:
  collapse R^P onto R^D (objective 2 of Sec. IV-C disabled);
* ``abl_tiebreak`` — cold-start arg-max tie-break direction
  (insert-first, the repo default, vs bypass-first as a literal reading
  of the action encoding);
* ``abl_sampling`` — sampled-set training density (the scaled-run
  fidelity knob this reproduction adds).

Plus ``extended_baselines``: the classical policies (random, SRRIP,
DRRIP, SHiP++) the paper omits, for context.

Each study is a plan over the same 4-core homogeneous jobs as the
paper figures.  The CHROME variants are named policy factories, so
their jobs go through the engine like any other (``--jobs N``, disk
cache), and the plain ``chrome`` rows are the very jobs Fig. 6 runs.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.chrome import ChromePolicy
from ..core.config import (
    ACTION_BYPASS,
    ACTION_EPV_HIGH,
    ACTION_EPV_LOW,
    ACTION_EPV_MED,
    ChromeConfig,
)
from ..core.rewards import RewardConfig
from .engine import ExperimentPlan
from .figures import _suite_workloads, variant_speedup_plan
from .jobspec import PolicySpec, register_policy_factory
from .registry import register_experiment
from .runner import ExperimentScale, scaled_sampled_sets


class NoBypassChromePolicy(ChromePolicy):
    """CHROME restricted to replacement actions (no holistic bypass)."""

    name = "chrome-nobypass"

    def should_bypass(self, info):  # type: ignore[override]
        action = self._decide(info, hit=False)
        if action == ACTION_BYPASS:
            # Illegal here: fall back to distant-priority insertion.
            action = ACTION_EPV_HIGH
        self._pending_fill = (info.block_addr, action)
        return False


class BypassFirstChromePolicy(ChromePolicy):
    """CHROME whose cold-state tie-break prefers BYPASS (the pre-fix
    behaviour): demonstrates the cold-start bypass spiral."""

    name = "chrome-bypassfirst"

    def __init__(self, config=None) -> None:
        super().__init__(config)
        self._miss_actions = (
            ACTION_BYPASS,
            ACTION_EPV_LOW,
            ACTION_EPV_MED,
            ACTION_EPV_HIGH,
        )


#: R^P collapsed onto R^D (objective 2 of Sec. IV-C disabled)
FLAT_PREFETCH_REWARDS = RewardConfig(
    r_ac_prefetch=RewardConfig().r_ac_demand,
    r_in_prefetch=RewardConfig().r_in_demand,
)


def _chrome_factory(policy_cls, **overrides):
    """A policy factory building ``policy_cls`` at the run's scaled
    sampled-set count (see :func:`~repro.experiments.runner.resolve_policy`)."""

    def build(machine_scale: float) -> ChromePolicy:
        return policy_cls(
            replace(
                ChromeConfig(),
                sampled_sets=scaled_sampled_sets(machine_scale),
                **overrides,
            )
        )

    return build


register_policy_factory("chrome_nobypass", _chrome_factory(NoBypassChromePolicy))
register_policy_factory(
    "chrome_bypassfirst", _chrome_factory(BypassFirstChromePolicy)
)
register_policy_factory(
    "chrome_flat_prefetch_rewards",
    _chrome_factory(ChromePolicy, rewards=FLAT_PREFETCH_REWARDS),
)

CHROME = PolicySpec.named("chrome")


def abl_bypass_plan(scale: ExperimentScale) -> ExperimentPlan:
    return variant_speedup_plan(
        scale,
        "abl_bypass",
        "Ablation: holistic bypassing (4-core SPEC homogeneous, %)",
        "variant",
        [("chrome", CHROME), ("chrome-nobypass", PolicySpec("chrome_nobypass"))],
        notes=["expectation: removing the bypass action forfeits pollution wins"],
    )


def abl_prefetch_rewards_plan(scale: ExperimentScale) -> ExperimentPlan:
    return variant_speedup_plan(
        scale,
        "abl_prefetch_rewards",
        "Ablation: demand/prefetch reward differentiation (%)",
        "variant",
        [
            ("chrome", CHROME),
            (
                "chrome-flat-prefetch-rewards",
                PolicySpec("chrome_flat_prefetch_rewards"),
            ),
        ],
        notes=["objective 2 of Sec. IV-C: demand retention should outrank prefetch"],
    )


def abl_tiebreak_plan(scale: ExperimentScale) -> ExperimentPlan:
    return variant_speedup_plan(
        scale,
        "abl_tiebreak",
        "Ablation: cold-state arg-max tie-break direction (%)",
        "variant",
        [
            ("insert-first (repo default)", CHROME),
            ("bypass-first", PolicySpec("chrome_bypassfirst")),
        ],
        notes=["bypass-first can enter a self-reinforcing bypass spiral at short scale"],
    )


def abl_sampling_plan(scale: ExperimentScale) -> ExperimentPlan:
    workloads = _suite_workloads(scale)
    full = scaled_sampled_sets(scale.machine_scale)
    return variant_speedup_plan(
        scale,
        "abl_sampling",
        "Ablation: sampled-set training density (%)",
        "sampled_sets",
        [
            (sampled, PolicySpec.chrome_variant(sampled_sets=sampled))
            for sampled in sorted({16, 64, max(64, full // 4), full})
        ],
        notes=[
            "the paper's 64 sets assume full-length runs; scaled runs need "
            "proportionally denser sampling to preserve training density"
        ],
        workloads=workloads[: max(3, len(workloads) // 2)],
    )


def extended_baselines_plan(scale: ExperimentScale) -> ExperimentPlan:
    return variant_speedup_plan(
        scale,
        "extended_baselines",
        "Extended baselines vs CHROME (4-core SPEC homogeneous, %)",
        "scheme",
        [
            (scheme, PolicySpec.named(scheme))
            for scheme in ("random", "srrip", "drrip", "ship++", "chrome")
        ],
        notes=["classical policies omitted from the paper's comparison"],
    )


ABLATIONS = {
    "abl_bypass": abl_bypass_plan,
    "abl_prefetch_rewards": abl_prefetch_rewards_plan,
    "abl_tiebreak": abl_tiebreak_plan,
    "abl_sampling": abl_sampling_plan,
    "extended_baselines": extended_baselines_plan,
}

for _experiment_id, _plan in ABLATIONS.items():
    register_experiment(_experiment_id, _plan)
