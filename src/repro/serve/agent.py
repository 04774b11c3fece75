"""The CHROME agent, retargeted from the LLC to the object cache.

The paper's RL formulation carries over to a software cache almost
feature-for-feature (RLCache and Cold-RL make the same observation for
key-value and NGINX caches); the mapping is:

==========================  =================================================
LLC (paper)                 serving layer (this module)
==========================  =================================================
PC signature                **key-hash signature** (key + hit/refresh bits)
page number                 **size class** (log2 bucket of the object size)
core id                     **tenant / shard id**
demand vs. prefetch         **origin fetch vs. proactive refresh**
C-AMAT LLC-obstruction      **backend-latency obstruction** (EWMA per tenant)
64 sampled sets             64 sampled *segments* of the object store
bypass / insert-EPV         serve-and-drop / admit with an EPV
==========================  =================================================

Everything else — the feature-sliced Q-table, the per-sampled-segment
EQ FIFOs, R_AC/R_IN on re-request, OB/NOB-split NR rewards on EQ
eviction, the SARSA update pairing an evicted entry with the queue's
new head — is :class:`~repro.env.driver.AgentCore`, the same shared
driver the LLC policy binds; this module contains no learning code of
its own, only the serve binding (features, obstruction source, RNG
seed discipline, EPV plumbing into the object store).

The concurrency-aware part survives intact: when a tenant's backend
fetches are slow (its origin is "obstructed", the C-AMAT analogue),
the NR rewards grow in magnitude, so the agent works hardest at
evicting useless bytes exactly where misses hurt most.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..core.config import (
    ACTION_BYPASS,
    ACTION_TO_EPV,
    EPV_MAX,
    ChromeConfig,
)
from ..core.persistence import restore_agent, save_agent
from ..env.driver import AgentCore
from ..sim.address import fold_hash, mix_hash
from .policies import ServePolicy, register_serve_policy
from .store import CachedObject
from .workloads import Request

KEY_SIG_BITS = 17
SIZE_CLASS_BITS = 16
FREQ_CLASS_BITS = 8
REGION_BITS = 14

_CACHE_LIMIT = 1 << 20


class ServeFeatureExtractor:
    """Four-feature state vector for serve requests (Sec. IV-A analogue).

    Feature 1 — **key signature**: the key hashed with the hit/miss
    outcome, an ``is_refresh`` bit and the tenant id folded in, exactly
    like the LLC's PC signature folds hit/prefetch/core.  Feature
    hashing aggregates the long tail: buckets dominated by one-shot
    keys learn "bypass", buckets owned by a popular key learn "keep".

    Feature 2 — **size class**: the log2 bucket of the object size (x
    tenant), the data-access feature.  It generalizes across keys, so
    the agent can learn size-aware admission (e.g. large scan objects
    are rarely worth their bytes) even for never-seen keys.

    Feature 3 — **frequency class**: how many times this key has been
    requested so far (x tenant), exact up to 8 and log2-bucketed above.
    This is the standard learned-cache feature (LRB, Cold-RL) that
    survives *size-blind* pollution: a burst-storm key or an ANN
    near-duplicate is indistinguishable from foreground traffic by
    size or by a cold signature bucket, but it is always on its first
    or second request — low-count slices learn "bypass" while
    repeat-miss slices learn "admit", and the lesson transfers to
    never-seen keys immediately.  Low counts stay exact because the
    interesting admission boundaries sit there: traffic where crawler
    retries die after exactly two touches needs count-2 and count-3 in
    different states, which a pure log2 bucket would merge.

    Feature 4 — **key region**: the key's 1024-key page (x tenant),
    the spatial-locality feature.  Real key spaces are structured —
    URL path prefixes, content buckets, embedding clusters — and heat
    is correlated within a region: when a new conversation session or
    a freshly trending bucket starts, its first key is unknowable, but
    by the time its second key arrives the region slice already says
    "this neighborhood is hot".  It is the serve analogue of the
    address-region features hardware predictors use, and the only
    feature that can admit the *first* touch of a key whose neighbors
    are popular.
    """

    @staticmethod
    def freq_class(count: int) -> int:
        """Exact below 8, log2 bucket above (9, 10, ... per octave)."""
        return count if count < 8 else count.bit_length() + 5

    __slots__ = (
        "_sig_cache", "_size_cache", "_freq_cache", "_region_cache", "_counts"
    )

    num_features = 4

    def __init__(self) -> None:
        self._sig_cache: Dict[int, int] = {}
        self._size_cache: Dict[int, int] = {}
        self._freq_cache: Dict[int, int] = {}
        self._region_cache: Dict[int, int] = {}
        self._counts: Dict[int, int] = {}

    def extract(
        self, key: int, size: int, tenant: int, hit: bool, is_refresh: bool
    ) -> Tuple[int, int, int, int]:
        sig_key = (((key << 8) | (tenant & 0x3F)) << 2) | ((1 if hit else 0) << 1) | (
            1 if is_refresh else 0
        )
        sig = self._sig_cache.get(sig_key)
        if sig is None:
            raw = (key << 3) | (tenant & 0x1) << 2
            raw |= (1 if is_refresh else 0) << 1
            raw |= 1 if hit else 0
            raw ^= tenant << 40
            sig = fold_hash(raw, KEY_SIG_BITS)
            if len(self._sig_cache) < _CACHE_LIMIT:
                self._sig_cache[sig_key] = sig
        size_key = (size.bit_length() << 8) | (tenant & 0xFF)
        size_feat = self._size_cache.get(size_key)
        if size_feat is None:
            size_feat = fold_hash(size_key, SIZE_CLASS_BITS)
            if len(self._size_cache) < _CACHE_LIMIT:
                self._size_cache[size_key] = size_feat
        count = self._counts.get(key, 0) + 1
        if count > 1 or len(self._counts) < _CACHE_LIMIT:
            self._counts[key] = count
        freq_key = (self.freq_class(count) << 8) | (tenant & 0xFF)
        freq_feat = self._freq_cache.get(freq_key)
        if freq_feat is None:
            freq_feat = fold_hash(freq_key, FREQ_CLASS_BITS)
            if len(self._freq_cache) < _CACHE_LIMIT:
                self._freq_cache[freq_key] = freq_feat
        region_key = (key >> 10) ^ (tenant << 48)
        region_feat = self._region_cache.get(region_key)
        if region_feat is None:
            region_feat = fold_hash(region_key, REGION_BITS)
            if len(self._region_cache) < _CACHE_LIMIT:
                self._region_cache[region_key] = region_feat
        return (sig, size_feat, freq_feat, region_feat)


class BackendObstructionMonitor:
    """Per-tenant EWMA of backend fetch latency — the C-AMAT stand-in.

    A tenant whose *recent* origin fetches (fast EWMA) are slower than
    ``threshold x`` its own typical latency (slow EWMA, floored at the
    unloaded baseline) is *obstructed*: its misses are expensive right
    now, so the agent's concurrency-aware NR rewards amplify (exactly
    the role the LLC-obstruction flags play in the paper's reward
    scheme).  Obstruction is a *relative* signal, as in the paper —
    each core is compared against its own typical memory performance.
    A service running steadily at high concurrency is not obstructed,
    it is just busy; only transient deterioration (origin brownouts,
    fault bursts, queue blowups) should skew the reward magnitudes.
    """

    __slots__ = ("baseline_ms", "threshold", "beta", "slow_beta", "_ewma", "_slow")

    def __init__(
        self,
        baseline_ms: float,
        threshold: float = 1.35,
        beta: float = 0.08,
        slow_beta: float = 0.005,
    ) -> None:
        self.baseline_ms = baseline_ms
        self.threshold = threshold
        self.beta = beta
        self.slow_beta = slow_beta
        self._ewma: Dict[int, float] = {}
        self._slow: Dict[int, float] = {}

    def observe(self, tenant: int, latency_ms: float) -> None:
        prev = self._ewma.get(tenant, self.baseline_ms)
        self._ewma[tenant] = prev + self.beta * (latency_ms - prev)
        slow = self._slow.get(tenant, self.baseline_ms)
        self._slow[tenant] = slow + self.slow_beta * (latency_ms - slow)

    def observe_failure(self, tenant: int, latency_ms: float) -> None:
        """A failed/denied origin fetch — the strongest obstruction signal.

        Fault-inflated and failed fetches are *real* concurrency
        information, not noise: a tenant whose origin shard is erroring
        or browned out is exactly where a wasted cache slot hurts most.
        The observation is floored above the obstruction threshold so a
        fast-fail (whose response latency is tiny) still drives the
        EWMA toward the obstructed region instead of *washing it out*.
        """
        typical = max(self._slow.get(tenant, self.baseline_ms), self.baseline_ms)
        floor = typical * self.threshold * 2.0
        prev = self._ewma.get(tenant, self.baseline_ms)
        self._ewma[tenant] = prev + self.beta * (max(latency_ms, floor) - prev)

    def is_obstructed(self, tenant: int) -> bool:
        ewma = self._ewma.get(tenant)
        if ewma is None:
            return False
        typical = max(self._slow.get(tenant, self.baseline_ms), self.baseline_ms)
        return ewma > typical * self.threshold

    def summary(self) -> dict:
        return {f"tenant{t}": round(v, 3) for t, v in sorted(self._ewma.items())}


class ServeAgent(AgentCore):
    """Algorithm 1 over cache *requests* instead of LLC accesses.

    The serve binding of :class:`~repro.env.driver.AgentCore` — the
    same driver :class:`~repro.core.chrome.ChromePolicy` binds for the
    LLC: epsilon-greedy over the same four actions, EQ recording on
    sampled segments, R_AC/R_IN on re-request, OB/NOB NR rewards at EQ
    eviction, one SARSA update per eviction.  Only the state features,
    the obstruction source and the RNG seed discipline live here (see
    the module docstring's mapping table).
    """

    def __init__(
        self, config: Optional[ChromeConfig] = None, seed: int = 0
    ) -> None:
        config = config or ChromeConfig()
        self.features = ServeFeatureExtractor()
        # Job-spec seeding, as in the LLC policy: the exploration RNG is a
        # pure function of (config seed, job seed) — nothing ambient.
        AgentCore.__init__(
            self,
            config,
            self.features.num_features,
            mix_hash((config.seed << 17) ^ seed),
        )

    # --- wiring -----------------------------------------------------------------

    def attach(self, num_segments: int) -> None:
        """Choose the sampled training segments (64-sampled-set scheme)."""
        self.attach_sampled(num_segments)

    # --- decision + training (Algorithm 1) ---------------------------------------

    @property
    def sampled_requests(self) -> int:
        """Serve spelling of the shared sampled-step counter."""
        return self.sampled_steps

    def decide(self, req: Request, seg_idx: int, hit: bool) -> int:
        """One RL decision for one request; trains on sampled segments."""
        state = self.features.extract(
            req.key, req.size, req.tenant, hit, req.is_refresh
        )
        action = self.rl_decide(
            state, seg_idx, req.key, hit, req.is_refresh, req.tenant
        )
        if action == ACTION_BYPASS:
            self.bypass_decisions += 1
        return action

    # --- persistence (warm starts) ------------------------------------------------

    def save(self, path) -> None:
        """Write a version-tagged JSON snapshot (Q-table + RNG state)."""
        save_agent(self, path, kind="serve-agent")

    def restore(self, path) -> None:
        """Load a snapshot saved by :meth:`save` (bit-identical Q)."""
        restore_agent(self, path, kind="serve-agent")

    # --- reporting ---------------------------------------------------------------

    def telemetry(self) -> dict:
        return {
            "decisions": self.decisions,
            "explorations": self.explorations,
            "bypass_decisions": self.bypass_decisions,
            "sampled_requests": self.sampled_steps,
            "q_updates": self.qtable.updates,
            "eq_reward_matches": self.eq.reward_matches,
            **{f"reward_{k}": v for k, v in self.reward_mix().items()},
            **self.qtable.snapshot_stats(),
        }


class ChromeServePolicy(ServePolicy):
    """The ServePolicy facade over :class:`ServeAgent`.

    Admission mirrors the LLC miss path (bypass or insert with an
    EPV), hits update the object's EPV, and eviction picks the highest
    EPV (oldest-first among ties) — :meth:`ChromePolicy.find_victim`
    transplanted to variable-sized objects.
    """

    name = "chrome"

    def __init__(
        self,
        config: Optional[ChromeConfig] = None,
        seed: int = 0,
        agent: Optional[ServeAgent] = None,
        backend: Optional[str] = None,
    ) -> None:
        super().__init__()
        if backend is not None and agent is None:
            config = replace(config or ChromeConfig(), backend=backend)
        self.agent = agent or ServeAgent(config, seed=seed)
        self._pending_epv: Optional[Tuple[int, int]] = None  # (key, epv)

    def attach(self, num_segments: int, segment_capacity: int) -> None:
        super().attach(num_segments, segment_capacity)
        self.agent.attach(num_segments)

    def bind_obstruction(self, monitor: BackendObstructionMonitor) -> None:
        self.agent.bind_obstruction(monitor)

    def admit(self, req: Request, seg_idx: int) -> bool:
        action = self.agent.decide(req, seg_idx, hit=False)
        if action == ACTION_BYPASS:
            self._pending_epv = None
            return False
        self._pending_epv = (req.key, ACTION_TO_EPV[action])
        return True

    def on_admit(self, req: Request, obj: CachedObject, seg_idx: int) -> None:
        pending = self._pending_epv
        self._pending_epv = None
        if pending is not None and pending[0] == req.key:
            obj.epv = pending[1]
        else:
            obj.epv = EPV_MAX

    def on_hit(self, req: Request, obj: CachedObject, seg_idx: int) -> None:
        action = self.agent.decide(req, seg_idx, hit=True)
        obj.epv = ACTION_TO_EPV[action]

    def select_victim(self, segment: Dict[int, CachedObject], seg_idx: int) -> int:
        best_key = -1
        best_epv = -1
        best_touch = 0
        for key, obj in segment.items():
            epv = obj.epv
            if epv > best_epv:
                best_key = key
                best_epv = epv
                best_touch = obj.last_touch
            elif epv == best_epv and obj.last_touch < best_touch:
                best_key = key
                best_touch = obj.last_touch
        return best_key

    def reward_mix(self) -> dict:
        return self.agent.reward_mix()

    def telemetry(self) -> dict:
        return self.agent.telemetry()


register_serve_policy("chrome", ChromeServePolicy)
