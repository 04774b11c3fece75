"""Size-aware segmented object store — the serving layer's "cache".

The store mirrors the LLC simulator's structure one level up:

* the key space is hashed into ``num_segments`` power-of-two
  **segments** (the set-index analogue), each with an equal byte
  budget, so eviction scans stay small and the CHROME agent's
  sampled-*segment* training scheme maps 1:1 onto the paper's 64
  sampled LLC sets;
* objects are **variable-sized**: admission reserves bytes, eviction
  loops until the incoming object fits, and objects larger than a
  whole segment are served-and-dropped (forced bypass) — no policy can
  cache them;
* every judgement call is delegated to a
  :class:`~repro.serve.policies.ServePolicy` (classic baselines or the
  CHROME serve agent), which sees hits, admissions and evictions
  through the same hooks.

The store is deliberately synchronous and deterministic: the asyncio
front-end (:mod:`repro.serve.service`) serializes state mutation in
request-sequence order, which is what keeps hit ratios bit-identical
no matter how many concurrent clients drive it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..sim.address import is_power_of_two, mix_hash
from .metrics import MetricsRecorder
from .policies import ServePolicy
from .workloads import Request


@dataclass(slots=True)
class CachedObject:
    """One cached object plus the metadata policies key off."""

    key: int
    size: int
    tenant: int
    epv: int = 0  # eviction priority (CHROME agent)
    freq: int = 1  # access count since admission (LFU/GDSF/S3-FIFO)
    priority: float = 0.0  # GDSF priority
    last_touch: int = 0  # store tick of the last access
    inserted_at: int = 0


class ObjectStore:
    """Segmented byte-budgeted object cache driven by a ServePolicy."""

    def __init__(
        self,
        capacity_bytes: int,
        num_segments: int,
        policy: ServePolicy,
        recorder: Optional[MetricsRecorder] = None,
    ) -> None:
        if not is_power_of_two(num_segments):
            raise ValueError("num_segments must be a power of two")
        if capacity_bytes < num_segments:
            raise ValueError("capacity must be at least one byte per segment")
        self.capacity_bytes = capacity_bytes
        self.num_segments = num_segments
        self.segment_capacity = capacity_bytes // num_segments
        self.policy = policy
        self.recorder = recorder
        # Eviction taps (stale retention, hot-key tracking, ...) — a
        # list so multiple subscribers coexist; see add_evict_listener.
        self._evict_listeners: List[Callable[[CachedObject], None]] = []
        self._segments: List[Dict[int, CachedObject]] = [
            {} for _ in range(num_segments)
        ]
        self._segment_bytes: List[int] = [0] * num_segments
        # key -> segment memo (hashing is pure, so the memo is exact;
        # bounded like the Q-table's index cache).
        self._seg_memo: Dict[int, int] = {}
        self._tick = 0
        # counters (cheap enough to keep unconditionally)
        self.lookups = 0
        self.hits = 0
        self.admissions = 0
        self.forced_bypasses = 0
        self.evictions = 0
        policy.attach(num_segments, self.segment_capacity)

    # --- eviction subscribers ----------------------------------------------------

    def add_evict_listener(
        self, listener: Callable[[CachedObject], None]
    ) -> None:
        """Subscribe to evictions; listeners fire in registration order."""
        self._evict_listeners.append(listener)

    # --- indexing ----------------------------------------------------------------

    def segment_of(self, key: int) -> int:
        seg = self._seg_memo.get(key)
        if seg is None:
            seg = mix_hash(key) & (self.num_segments - 1)
            if len(self._seg_memo) < (1 << 20):
                self._seg_memo[key] = seg
        return seg

    def contains(self, key: int) -> bool:
        return key in self._segments[self.segment_of(key)]

    @property
    def used_bytes(self) -> int:
        return sum(self._segment_bytes)

    # --- request path ------------------------------------------------------------

    def lookup(self, req: Request) -> bool:
        """Serve a request from cache if present (the hit path)."""
        self._tick += 1
        self.lookups += 1
        seg_idx = self.segment_of(req.key)
        obj = self._segments[seg_idx].get(req.key)
        if obj is None:
            return False
        self.hits += 1
        obj.freq += 1
        obj.last_touch = self._tick
        self.policy.on_hit(req, obj, seg_idx)
        return True

    def admit(self, req: Request) -> bool:
        """Miss path: consult the policy, make room, insert.

        Returns True when the object was cached.  Objects that cannot
        fit in a segment are forced bypasses — the policy is not asked
        (and not trained) on decisions the store cannot honour.
        """
        seg_idx = self.segment_of(req.key)
        if req.size > self.segment_capacity:
            self.forced_bypasses += 1
            if self.recorder is not None:
                self.recorder.on_bypass(req.size)
            return False
        if not self.policy.admit(req, seg_idx):
            if self.recorder is not None:
                self.recorder.on_bypass(req.size)
            return False
        segment = self._segments[seg_idx]
        while self._segment_bytes[seg_idx] + req.size > self.segment_capacity:
            victim_key = self.policy.select_victim(segment, seg_idx)
            self._evict(victim_key, seg_idx)
        obj = CachedObject(
            key=req.key,
            size=req.size,
            tenant=req.tenant,
            last_touch=self._tick,
            inserted_at=self._tick,
        )
        segment[req.key] = obj
        self._segment_bytes[seg_idx] += req.size
        self.admissions += 1
        self.policy.on_admit(req, obj, seg_idx)
        if self.recorder is not None:
            self.recorder.on_admit(req.size)
        return True

    def _evict(self, key: int, seg_idx: int) -> None:
        obj = self._segments[seg_idx].pop(key)
        self._segment_bytes[seg_idx] -= obj.size
        self.evictions += 1
        self.policy.on_evict(obj, seg_idx)
        for listener in self._evict_listeners:
            listener(obj)
        if self.recorder is not None:
            self.recorder.on_evict(obj.size)
