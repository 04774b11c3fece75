"""Graceful degradation for the serving layer: what a production proxy
does when its origin misbehaves.

:class:`ResilienceConfig` declares the policy, :class:`ResilienceState`
runs it.  Five mechanisms, all in virtual time, all deterministic:

* **per-request latency budget** — ``timeout_ms`` is a whole-request
  deadline: an attempt still in flight when the budget runs out is
  abandoned there, and no retry starts without budget left to run in,
  so a degraded miss can never take longer than the budget;
* **capped exponential backoff retries** — up to ``max_attempts``
  attempts per request, separated by ``base * multiplier^(attempt-1)``
  (capped) plus a *seeded* jitter that is a pure hash of
  ``(seed, seq, attempt)`` — no RNG stream, so retries draw the same
  jitter at any client count and in any process;
* **per-tenant circuit breaker** — ``closed -> open`` after
  ``failure_threshold`` consecutive failures, ``open -> half-open``
  after ``open_ms`` of virtual time, half-open admits a bounded number
  of probe requests and closes on success / re-opens on failure.
  While open, the backend is never touched for that tenant: requests
  fast-fail (or serve stale) instead of piling onto a dead origin;
* **stale serving** — evicted objects are *retained* (key + size, a
  bounded LRU of ``stale_entries``); when the breaker is open or every
  retry is exhausted, a retained copy is served as degraded-but-200
  instead of an error, the classic CDN ``stale-if-error`` behavior;
* **load shedding** — when the origin's outstanding-fetch depth
  reaches ``shed_outstanding``, new misses are refused outright
  (fast 503) rather than queued, bounding the latency of everything
  already in flight.

``ResilienceConfig()`` defaults are production-shaped but *inert on a
healthy backend*: no timeout trips, no retry fires, the breaker never
opens and nothing sheds, so runs with faults disabled remain
bit-identical to the pre-resilience serving layer (the differential
suite pins this against the committed goldens).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, Tuple

from ..sim.address import mix_hash

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_INV_2_64 = 1.0 / float(1 << 64)

#: circuit-breaker states (exported for tests/telemetry)
BREAKER_CLOSED = 0
BREAKER_OPEN = 1
BREAKER_HALF_OPEN = 2

#: human-readable names for the obs timeline / reports
BREAKER_STATE_NAMES = {
    BREAKER_CLOSED: "closed",
    BREAKER_OPEN: "open",
    BREAKER_HALF_OPEN: "half-open",
}


@dataclass(frozen=True)
class ResilienceConfig:
    """Degradation policy knobs (virtual ms).  ``0`` disables a knob."""

    #: total fetch attempts per request (1 = no retries)
    max_attempts: int = 3
    #: whole-request latency budget, attempts + backoff (0 = no deadline)
    timeout_ms: float = 0.0
    backoff_base_ms: float = 2.0
    backoff_multiplier: float = 2.0
    backoff_cap_ms: float = 50.0
    #: jitter drawn uniformly from [0, jitter_fraction * backoff)
    jitter_fraction: float = 0.5
    #: consecutive failures that open the breaker (0 = breaker off)
    breaker_failure_threshold: int = 8
    breaker_open_ms: float = 250.0
    breaker_half_open_probes: int = 2
    #: evicted keys retained for stale serving (0 = stale serving off)
    stale_entries: int = 4096
    #: extra latency charged to a stale response (staleness check)
    stale_latency_ms: float = 0.5
    #: shed new misses once this many fetches are outstanding (0 = off)
    shed_outstanding: int = 0
    #: virtual latency of a fast-fail response (shed / breaker denial)
    error_latency_ms: float = 1.0
    #: salt for the deterministic backoff jitter
    seed: int = 0

    @classmethod
    def none(cls) -> "ResilienceConfig":
        """The do-nothing configuration: one attempt, no timeout, no
        breaker, no stale copies, no shedding — what a naive proxy does
        when its origin burns.  The experiment control group."""
        return cls(
            max_attempts=1,
            timeout_ms=0.0,
            breaker_failure_threshold=0,
            stale_entries=0,
            shed_outstanding=0,
        )

    def params(self) -> Tuple[Tuple[str, object], ...]:
        """Spec-tuple form for embedding in a frozen job spec."""
        return tuple((f.name, getattr(self, f.name)) for f in fields(self))


class CircuitBreaker:
    """One tenant's closed/open/half-open state machine (virtual time).

    Kept deliberately slot-free so tests can instrument ``allow`` to
    verify the no-backend-while-open invariant from the outside.
    """

    def __init__(self, config: ResilienceConfig) -> None:
        self.config = config
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.open_until = 0.0
        self.probes_left = 0
        self.opens = 0  # telemetry: total closed/half-open -> open trips

    @property
    def enabled(self) -> bool:
        return self.config.breaker_failure_threshold > 0

    def allow(self, now_ms: float) -> Tuple[bool, bool]:
        """May this request touch the backend?  ``(allowed, probing)``."""
        if not self.enabled:
            return True, False
        if self.state == BREAKER_OPEN:
            if now_ms < self.open_until:
                return False, False
            self.state = BREAKER_HALF_OPEN
            self.probes_left = max(1, self.config.breaker_half_open_probes)
        if self.state == BREAKER_HALF_OPEN:
            if self.probes_left <= 0:
                return False, False
            self.probes_left -= 1
            return True, True
        return True, False

    def on_success(self) -> None:
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_CLOSED
        self.consecutive_failures = 0

    def on_failure(self, now_ms: float) -> bool:
        """Record a failed request; returns True when the breaker trips."""
        if not self.enabled:
            return False
        if self.state == BREAKER_HALF_OPEN:
            # A failed probe re-opens immediately.
            self.state = BREAKER_OPEN
            self.open_until = now_ms + self.config.breaker_open_ms
            self.consecutive_failures = 0
            self.opens += 1
            return True
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.config.breaker_failure_threshold:
            self.state = BREAKER_OPEN
            self.open_until = now_ms + self.config.breaker_open_ms
            self.consecutive_failures = 0
            self.opens += 1
            return True
        return False


class ResilienceState:
    """Runtime for one service: breakers, stale retention, backoff."""

    __slots__ = ("config", "_seed", "_breakers", "_stale")

    def __init__(self, config: ResilienceConfig) -> None:
        self.config = config
        self._seed = mix_hash((config.seed << 1) ^ 0x5E11E)
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._stale: "OrderedDict[int, int]" = OrderedDict()  # key -> size

    # --- breakers --------------------------------------------------------------

    def breaker(self, tenant: int) -> CircuitBreaker:
        b = self._breakers.get(tenant)
        if b is None:
            b = self._breakers[tenant] = CircuitBreaker(self.config)
        return b

    def breaker_opens(self) -> int:
        return sum(b.opens for b in self._breakers.values())

    def breaker_states(self) -> Dict[int, str]:
        """Current per-tenant breaker states, by tenant id (telemetry)."""
        return {
            tenant: BREAKER_STATE_NAMES[b.state]
            for tenant, b in sorted(self._breakers.items())
        }

    # --- load shedding ----------------------------------------------------------

    def should_shed(self, outstanding: int) -> bool:
        limit = self.config.shed_outstanding
        return limit > 0 and outstanding >= limit

    # --- retries ----------------------------------------------------------------

    def backoff_ms(self, seq: int, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (deterministic jitter).

        ``attempt`` counts *completed* attempts, so callers pass values
        from 1 upward (the retry loop asserts this).  The exponent is
        clamped at zero anyway: a defensive ``attempt=0`` waits exactly
        ``backoff_base_ms`` (pre-jitter) instead of underflowing to a
        sub-base ``base / multiplier`` wait.
        """
        cfg = self.config
        exponent = attempt - 1
        if exponent < 0:
            exponent = 0
        backoff = cfg.backoff_base_ms * cfg.backoff_multiplier ** exponent
        if backoff > cfg.backoff_cap_ms:
            backoff = cfg.backoff_cap_ms
        if cfg.jitter_fraction > 0.0:
            h = mix_hash((self._seed ^ (seq << 8) ^ attempt) & _MASK64)
            backoff += (h * _INV_2_64) * cfg.jitter_fraction * backoff
        return backoff

    # --- stale retention ---------------------------------------------------------

    def retain_stale(self, obj) -> None:
        """Remember an evicted object (called by the store's evict hook)."""
        limit = self.config.stale_entries
        if limit <= 0:
            return
        stale = self._stale
        stale[obj.key] = obj.size
        stale.move_to_end(obj.key)
        while len(stale) > limit:
            stale.popitem(last=False)

    def stale_hit(self, key: int) -> bool:
        """Is a retained (stale) copy available?  Refreshes its LRU slot."""
        if key in self._stale:
            self._stale.move_to_end(key)
            return True
        return False

    def forget_stale(self, key: int) -> None:
        """Drop the retained copy (the key was re-fetched fresh)."""
        self._stale.pop(key, None)

    @property
    def stale_retained(self) -> int:
        return len(self._stale)
