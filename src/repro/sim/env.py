"""The LLC simulator as an :class:`~repro.env.protocol.Environment`.

The sim domain binding: one :class:`~repro.sim.multicore.MultiCoreSystem`
run of a trace mix under an LLC policy.  The adapter's keyword
parameters are the whole spec of a simulation job:

* ``mix`` — a :class:`~repro.experiments.jobspec.MixSpec` (which traces
  to build, and the mix seed);
* ``policy`` — a :class:`~repro.experiments.jobspec.PolicySpec` (a
  policy *factory name* plus literal parameters, so the spec stays
  picklable and hashable: policy instances never cross job boundaries,
  which is what makes ``--jobs 1`` and ``--jobs 8`` bit-identical);
* ``prefetch`` and the run-size fields of
  :class:`~repro.experiments.runner.ExperimentScale`.

``run()`` builds the traces and the machine from the spec alone and
returns the :class:`~repro.sim.multicore.SystemResult`, so a job
executes identically inline, in a worker process, or on a cache
replay.  The policy is built at construction, so the snapshot seam
(the ``chrome-agent`` persistence kind) is reachable before and after
the run.
"""

from __future__ import annotations

from typing import List

from ..core.persistence import agent_state
from ..env.driver import restore_agent_state
from ..env.protocol import Environment
from ..env.registry import register_environment
from ..experiments.jobspec import MixSpec, PolicySpec
from ..experiments.runner import ExperimentScale
from .multicore import MultiCoreSystem, SystemConfig, SystemResult


class SimEnvironment(Environment):
    """One simulated machine, run to completion under one LLC policy."""

    name = "sim"
    snapshot_kind = "chrome-agent"
    code_version = "2"

    def __init__(
        self,
        *,
        mix: MixSpec,
        policy: PolicySpec,
        prefetch: str = "nl_stride",
        machine_scale: float = ExperimentScale.machine_scale,
        accesses_per_core: int = ExperimentScale.accesses_per_core,
        warmup_per_core: int = ExperimentScale.warmup_per_core,
    ) -> None:
        self.mix = mix
        self.prefetch = prefetch
        self.machine_scale = machine_scale
        self.accesses_per_core = accesses_per_core
        self.warmup_per_core = warmup_per_core
        self.policy = policy.build(machine_scale)

    def run(self, obs=None) -> SystemResult:
        total = self.accesses_per_core + self.warmup_per_core
        traces = self.mix.build(total, self.machine_scale)
        system = MultiCoreSystem(
            SystemConfig(num_cores=self.mix.num_cores, scale=self.machine_scale),
            llc_policy=self.policy,
            prefetch_config=self.prefetch,
            obs=obs,
        )
        return system.run(
            traces,
            max_accesses_per_core=total,
            warmup_accesses=self.warmup_per_core,
        )

    def agent_states(self) -> List[dict]:
        return [agent_state(self.policy, self.snapshot_kind)]

    def load_agent_states(
        self, states: List[dict], *, keep_rng: bool = False
    ) -> None:
        restore_agent_state(
            self.policy, states[0], self.snapshot_kind, keep_rng=keep_rng
        )


register_environment("sim", SimEnvironment)
