"""Toy domain: a single-tier DRAM-row cache, as one adapter file.

The existence proof for the :class:`~repro.env.protocol.Environment`
protocol: a complete new CHROME domain — row-buffer management for a
banked DRAM device — in ~150 lines, none of which are learning code.
Everything RL comes from :class:`~repro.env.driver.AgentCore`; this
file supplies only the bindings the protocol asks for:

* **unit population** — DRAM banks (the sampled-unit role LLC sets and
  store segments play elsewhere);
* **key** — the row id within its bank (the re-request identity);
* **features** — a 2-feature state: hashed row signature (row + hit
  bit, the PC-signature analogue) and the row's neighborhood (the
  page-number analogue);
* **obstruction** — per-bank miss-pressure EWMA
  (:class:`BankPressureMonitor`): a bank thrashing its open-row cache
  is where a wasted slot hurts most, so NR rewards amplify there;
* **actions** — the shared surface verbatim: on a miss, bypass (serve
  the access without caching the row) or cache it with an EPV; on a
  hit, set the EPV; eviction takes the highest EPV, oldest-first.

The access stream is a deterministic pure-hash mix of hot rows and
sequential sweeps, so two instances with the same spec replay the same
stream — the conformance suite pins run-twice equality and the
save/restore round trip like every other adapter.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.config import ACTION_BYPASS, ACTION_TO_EPV, ChromeConfig
from ..core.persistence import agent_state
from ..sim.address import fold_hash, mix_hash
from .driver import AgentCore, restore_agent_state, run_steps
from .protocol import Environment, Observation
from .registry import register_environment

ROW_SIG_BITS = 17
REGION_BITS = 16

#: fraction of the mixed stream drawn from the hot-row set (out of 16)
_HOT_SIXTEENTHS = 11


class BankPressureMonitor:
    """Per-bank miss-rate EWMA — the toy domain's obstruction source."""

    def __init__(self, threshold: float = 0.6, beta: float = 0.05) -> None:
        self.threshold = threshold
        self.beta = beta
        self._ewma: Dict[int, float] = {}

    def observe(self, bank: int, hit: bool) -> None:
        prev = self._ewma.get(bank, 0.0)
        self._ewma[bank] = prev + self.beta * ((0.0 if hit else 1.0) - prev)

    def is_obstructed(self, bank: int) -> bool:
        return self._ewma.get(bank, 0.0) > self.threshold


class ToyRowFeatureExtractor:
    """Two-feature state for a row access (signature + neighborhood)."""

    num_features = 2

    def extract(self, row: int, bank: int, hit: bool) -> Tuple[int, int]:
        sig = fold_hash((row << 2) | ((bank & 0x1) << 1) | (1 if hit else 0),
                        ROW_SIG_BITS)
        region = fold_hash(((row >> 3) << 8) ^ bank, REGION_BITS)
        return (sig, region)


class ToyRowCacheEnvironment(Environment):
    """A banked DRAM device whose open-row cache CHROME manages."""

    name = "toy"
    snapshot_kind = "toy-agent"
    code_version = "toy-1"

    def __init__(
        self,
        *,
        num_steps: int = 4000,
        num_banks: int = 16,
        rows_per_bank: int = 4,
        hot_rows: int = 8,
        row_space: int = 512,
        seed: int = 0,
        epsilon: float | None = None,
    ) -> None:
        from dataclasses import replace

        self._num_steps = num_steps
        self._num_banks = num_banks
        self._rows_per_bank = rows_per_bank
        self._hot_rows = hot_rows
        self._row_space = row_space
        self._seed = seed
        self.features = ToyRowFeatureExtractor()
        config = replace(ChromeConfig(), sampled_sets=num_banks)
        if epsilon is not None:
            config = replace(config, epsilon=epsilon)
        self.agent = AgentCore(
            config, self.features.num_features, mix_hash((config.seed << 9) ^ seed)
        )
        self.agent.attach_sampled(num_banks)
        self.monitor = BankPressureMonitor()
        self.agent.bind_obstruction(self.monitor)
        #: bank -> {row: epv}; insertion order doubles as age (oldest first)
        self._open: List[Dict[int, int]] = [dict() for _ in range(num_banks)]
        self._clock = 0
        # run metrics
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    # --- the generic-driver surface ----------------------------------------------

    def steps(self):
        """Deterministic mixed stream: hot rows + sequential sweeps."""
        for i in range(self._num_steps):
            h = mix_hash(self._seed ^ (i << 1))
            if (h & 0xF) < _HOT_SIXTEENTHS:
                row = (h >> 8) % self._hot_rows
            else:
                row = (i + ((h >> 16) & 0x7)) % self._row_space
            bank = mix_hash(row) % self._num_banks
            yield Observation(
                key=row,
                unit=bank,
                actor=bank,
                hit=row in self._open[bank],
            )

    def extract(self, obs: Observation) -> Tuple[int, int]:
        return self.features.extract(obs.key, obs.unit, obs.hit)

    def apply(self, obs: Observation, action: int) -> None:
        bank = self._open[obs.unit]
        self.monitor.observe(obs.unit, obs.hit)
        self._clock += 1
        if obs.hit:
            self.hits += 1
            bank[obs.key] = ACTION_TO_EPV[action]
            return
        self.misses += 1
        if action == ACTION_BYPASS:
            self.bypasses += 1
            return
        if len(bank) >= self._rows_per_bank:
            # Highest EPV first, oldest-first among ties (dict order = age).
            victim = max(bank, key=lambda row: bank[row])
            del bank[victim]
        bank[obs.key] = ACTION_TO_EPV[action]

    # --- the Environment contract --------------------------------------------------

    def run(self, obs=None) -> Dict[str, object]:
        """Run the stream; the result is a plain mapping (not instrumented)."""
        steps = run_steps(self.agent, self)
        accesses = self.hits + self.misses
        return {
            "steps": steps,
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "row_hit_ratio": self.hits / accesses if accesses else 0.0,
            "telemetry": {
                "sampled_steps": self.agent.sampled_steps,
                **self.agent.core_telemetry(),
            },
        }

    def agent_states(self) -> List[dict]:
        return [agent_state(self.agent, self.snapshot_kind)]

    def load_agent_states(
        self, states: List[dict], *, keep_rng: bool = False
    ) -> None:
        restore_agent_state(
            self.agent, states[0], self.snapshot_kind, keep_rng=keep_rng
        )


register_environment("toy", ToyRowCacheEnvironment)
