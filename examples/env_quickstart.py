"""Environment-protocol quickstart: one RL core, five domains, one recipe.

Part 1 walks the registry: every registered environment (the LLC
simulator, the object-cache service, the sharded fleet, the
ops-managed service, and the toy DRAM-row cache) is built from the
same ``build_environment`` call and run to completion — five domains,
zero domain-specific driver code.  Each ``run()`` returns its domain's
own result object, the same one the experiment engine caches.

Part 2 shows the snapshot seam the protocol standardizes: the toy
environment is trained, its agent state is captured, and a fresh
instance resumes from the snapshot — the same save/restore contract
the ops guardrail's rollback and the cluster's federation use.

Part 3 is the "new domain in one file" recipe, live: a miniature
environment for a TLB-style translation cache is defined *inside this
example* (~40 lines, no learning code), registered, and immediately
driven by the generic run loop — everything RL comes from the shared
:class:`~repro.env.driver.AgentCore`.

Run:
    PYTHONPATH=src python examples/env_quickstart.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import ACTION_BYPASS, ACTION_TO_EPV, ChromeConfig  # noqa: E402
from repro.env import (  # noqa: E402
    AgentCore,
    Environment,
    Observation,
    available_environments,
    build_environment,
    register_environment,
    run_steps,
)
from repro.experiments.jobspec import MixSpec, PolicySpec  # noqa: E402
from repro.sim.address import fold_hash, mix_hash  # noqa: E402

_SERVE = dict(
    workload="zipf_scan",
    policy="chrome",
    num_requests=800,
    warmup_requests=160,
    capacity_bytes=1 << 20,
    num_segments=64,
)

#: small run sizes so the whole tour finishes in seconds
SMALL = {
    "sim": dict(
        mix=MixSpec.homogeneous("mcf06", 2, seed=7),
        policy=PolicySpec.named("chrome"),
        machine_scale=1 / 64,
        accesses_per_core=800,
        warmup_per_core=200,
    ),
    "serve": _SERVE,
    "cluster": dict(_SERVE, num_shards=3),
    "ops": _SERVE,
    "toy": dict(num_steps=3000),
}


def tour_registry() -> None:
    """Part 1: every domain through the same two calls."""
    print("== one protocol, every domain ==")
    for name in available_environments():
        result = build_environment(name, **SMALL.get(name, {})).run()
        headline = {
            "sim": lambda r: (
                f"llc hits {r.llc_stats.demand_hits}/{r.llc_stats.demand_accesses}"
            ),
            "serve": lambda r: f"object hit {100 * r.object_hit_ratio:.1f}%",
            "cluster": lambda r: f"fleet hit {100 * r.fleet.object_hit_ratio:.1f}%",
            "ops": lambda r: (
                f"champion hit {100 * r.champion.object_hit_ratio:.1f}% "
                f"({len(r.windows)} ops windows)"
            ),
            "toy": lambda r: f"row hit {100 * r['row_hit_ratio']:.1f}%",
        }[name](result)
        print(f"  {name:8s} -> {headline}")


def snapshot_seam() -> None:
    """Part 2: train, snapshot, resume in a fresh instance."""
    print("\n== the snapshot seam ==")
    env = build_environment("toy", num_steps=3000)
    env.run()
    states = env.agent_states()
    q_updates = states[0]["qtable"]["updates"]
    print(f"  trained 3000 steps ({q_updates} Q-updates), snapshot taken")

    warm = build_environment("toy", num_steps=3000, seed=99)
    warm.load_agent_states(states, keep_rng=True)  # hot swap: keep own RNG
    result = warm.run()
    print(f"  warm-started fresh instance: "
          f"row hit {100 * result['row_hit_ratio']:.1f}% on unseen traffic")


# --- Part 3: a brand-new domain, defined right here --------------------------------


class TranslationCacheEnvironment(Environment):
    """A TLB-style translation cache — the one-adapter-file recipe, live.

    The binding supplies exactly what Algorithm 1 leaves abstract:
    a unit population (TLB sets), a key (virtual page), a 2-feature
    state, and what each action means to the cached structure.  No
    rewards, exploration, EQ, or SARSA appear below — all of it comes
    from the shared AgentCore.
    """

    name = "tlb-demo"
    snapshot_kind = "tlb-demo-agent"

    def __init__(self, *, num_steps: int = 3000, num_sets: int = 32,
                 ways: int = 4, seed: int = 0) -> None:
        self._num_steps = num_steps
        self._num_sets = num_sets
        self._ways = ways
        self._seed = seed
        config = replace(ChromeConfig(), sampled_sets=num_sets)
        self.agent = AgentCore(config, num_features=2,
                               rng_seed=mix_hash(seed ^ 0xB00))
        self.agent.attach_sampled(num_sets)
        self._sets: List[Dict[int, int]] = [dict() for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0

    def steps(self):
        for i in range(self._num_steps):
            h = mix_hash(self._seed ^ (i << 3))
            # 3/4 of accesses walk a hot working set, 1/4 stride a big one
            vpage = (h >> 6) % 48 if (h & 0x3) else (i * 7) % 4096
            s = vpage % self._num_sets
            yield Observation(key=vpage, unit=s, hit=vpage in self._sets[s])

    def extract(self, obs: Observation):
        return (fold_hash(obs.key, 16), fold_hash(obs.key >> 5, 14))

    def apply(self, obs: Observation, action: int) -> None:
        entries = self._sets[obs.unit]
        if obs.hit:
            self.hits += 1
            entries[obs.key] = ACTION_TO_EPV[action]
            return
        self.misses += 1
        if action == ACTION_BYPASS:
            return
        if len(entries) >= self._ways:
            del entries[max(entries, key=entries.__getitem__)]
        entries[obs.key] = ACTION_TO_EPV[action]

    def run(self, obs=None):
        steps = run_steps(self.agent, self)
        return {"steps": steps, "hits": self.hits, "misses": self.misses,
                "hit_ratio": self.hits / max(1, self.hits + self.misses)}

    def agent_states(self):
        from repro.core.persistence import agent_state
        return [agent_state(self.agent, self.snapshot_kind)]

    def load_agent_states(self, states, *, keep_rng: bool = False):
        from repro.env import restore_agent_state
        restore_agent_state(self.agent, states[0], self.snapshot_kind,
                            keep_rng=keep_rng)


def new_domain_recipe() -> None:
    """Part 3: register the in-file domain and run it generically."""
    print("\n== a new domain in one adapter ==")
    register_environment("tlb-demo", TranslationCacheEnvironment)
    result = build_environment("tlb-demo").run()
    print(f"  tlb-demo -> hit {100 * result['hit_ratio']:.1f}% "
          f"over {result['steps']} steps "
          "(zero learning code in the adapter)")


def main() -> None:
    tour_registry()
    snapshot_seam()
    new_domain_recipe()


if __name__ == "__main__":
    main()
