"""Deterministic fault injection for the serving layer.

A real origin is not the always-up, constant-speed box PR 3's
:class:`~repro.serve.service.Backend` modelled: it has latency spikes,
transient error bursts, full outages, per-tenant brownouts (one
tenant's shard degrades while the rest stay healthy), and a slow-start
ramp after it recovers.  This module injects all five — *without
touching wall-clock time or ambient randomness*, so the serving
layer's bit-identical determinism guarantee survives chaos testing:

* every fault decision is a **pure function** of
  ``(config, seed, request sequence number, attempt, virtual time)``.
  There is no shared RNG stream to race on — ``num_clients=1`` and
  ``num_clients=64`` draw exactly the same faults, and so do two
  processes on two machines (``mix_hash`` is arithmetic, not
  ``hash()``);
* fault *windows* (outages, brownouts, error bursts) live in **virtual
  time**: request ``seq`` arrives at ``seq x inter_arrival_ms``, so a
  "250 ms outage" hits the same requests in every run at every client
  count and on every host.

The injector only *decides*; the service
(:meth:`~repro.serve.service.CacheService._process_resilient`)
applies the decisions, and :mod:`repro.serve.resilience` supplies the
graceful-degradation machinery (timeouts, retries, breakers, stale
serving, shedding) that turns injected faults into bounded damage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..sim.address import mix_hash

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_INV_2_64 = 1.0 / float(1 << 64)
_INF = float("inf")
_NAN = float("nan")

# Salt constants so independent decision streams never correlate.
_SALT_ERROR = 0x51
_SALT_SPIKE = 0x52
_SALT_OUTAGE = 0x53
_SALT_BURST = 0x54
_SALT_BROWNOUT = 0x55


@dataclass(frozen=True)
class FaultConfig:
    """Declarative fault model (all windows/latencies in virtual ms).

    Every field has an "off" default, so ``FaultConfig()`` injects
    nothing; experiments enable exactly the failure modes they study.
    A rate/window of ``0`` disables that fault class.
    """

    seed: int = 0
    #: background per-attempt transient failure probability
    error_rate: float = 0.0
    #: per-attempt probability of a latency spike, and its multiplier
    spike_rate: float = 0.0
    spike_multiplier: float = 8.0
    #: error bursts: windows where the transient error rate jumps
    burst_every_ms: float = 0.0
    burst_duration_ms: float = 0.0
    burst_error_rate: float = 0.8
    #: full outages: windows where *every* origin fetch fails
    outage_every_ms: float = 0.0
    outage_duration_ms: float = 0.0
    #: slow start after an outage: latency multiplier decaying back to 1
    recovery_ramp_ms: float = 0.0
    recovery_multiplier: float = 4.0
    #: per-tenant brownout: one tenant's shard degrades periodically
    brownout_tenant: int = -1
    brownout_every_ms: float = 0.0
    brownout_duration_ms: float = 0.0
    brownout_error_rate: float = 0.5
    brownout_multiplier: float = 3.0

    def params(self) -> Tuple[Tuple[str, object], ...]:
        """Spec-tuple form for embedding in a frozen job spec."""
        from dataclasses import fields

        return tuple((f.name, getattr(self, f.name)) for f in fields(self))


def _unit(seed: int, salt: int, a: int, b: int = 0) -> float:
    """Uniform [0, 1) from (seed, salt, a, b) — pure, no state."""
    h = mix_hash((seed ^ (salt * _GOLDEN64) ^ (a << 20) ^ b) & _MASK64)
    return h * _INV_2_64


class _Windows:
    """The periodic windows of one fault class, in virtual time.

    Window ``k`` starts at ``k*every + jitter_k`` where the jitter is a
    pure hash of ``(seed, salt, k)`` — windows land at irregular but
    fully reproducible times.  As time moves forward each window's
    start is hashed once: the object keeps the index last asked about,
    the bounds of that window and the one before (O(1) state, whatever
    the horizon) and the last answer, so a query inside an already
    evaluated window costs a division and a few comparisons, and a
    repeated query costs one comparison.
    """

    __slots__ = (
        "every", "duration", "span", "seed", "salt",
        "k", "start", "end", "prev_start", "prev_end", "now", "answer",
    )

    def __init__(
        self, every_ms: float, duration_ms: float, seed: int, salt: int
    ) -> None:
        self.every = every_ms
        self.duration = duration_ms
        self.span = max(0.0, every_ms - duration_ms)
        self.seed = seed
        self.salt = salt
        # Index -1 has no window and neither has -2: a true starting state.
        self.k = -1
        self.start = self.end = self.prev_start = self.prev_end = _INF
        self.now = _NAN  # never equal to a query time
        self.answer = (False, _INF)

    def _bounds(self, k: int) -> Tuple[float, float]:
        """``(start, end)`` of window ``k``; none before window 0."""
        if k < 0:
            return _INF, _INF
        start = k * self.every + _unit(self.seed, self.salt, k) * self.span
        return start, start + self.duration

    def state(self, now_ms: float) -> Tuple[bool, float]:
        """Is ``now_ms`` inside a window, and how long since the most
        recent window *ended* (``inf`` if none ended yet)?"""
        if now_ms == self.now:
            return self.answer
        k = int(now_ms // self.every)
        if k != self.k:
            if k == self.k + 1:  # time moved on: window k becomes k-1
                self.prev_start, self.prev_end = self.start, self.end
                self.start, self.end = self._bounds(k)
            else:
                self.start, self.end = self._bounds(k)
                self.prev_start, self.prev_end = self._bounds(k - 1)
            self.k = k
        # Window k first, then k-1 (they overlap once duration > every).
        since_end = _INF
        if self.start <= now_ms < self.end:
            answer = (True, 0.0)
        else:
            if now_ms >= self.end:
                since_end = now_ms - self.end
            if self.prev_start <= now_ms < self.prev_end:
                answer = (True, 0.0)
            else:
                if now_ms >= self.prev_end:
                    since_end = min(since_end, now_ms - self.prev_end)
                answer = (False, since_end)
        self.now = now_ms
        self.answer = answer
        return answer


class FaultInjector:
    """Pure-function fault oracle over a :class:`FaultConfig`.

    All randomness is derived by hashing ``(seed, salt, ...)`` through
    the splitmix64 finalizer — order-independent and
    process-independent, which is what lets the concurrent driver
    consult it without any sequencing constraints beyond the ones the
    service already enforces.  The only state is each window class's
    cache of its current window (:class:`_Windows`), which changes how
    fast an answer comes, never what it is.
    """

    __slots__ = ("config", "_seed", "_outage", "_burst", "_brownout")

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self._seed = mix_hash((config.seed << 1) ^ 0xFA017)
        self._outage = self._windows(
            config.outage_every_ms, config.outage_duration_ms, _SALT_OUTAGE
        )
        self._burst = self._windows(
            config.burst_every_ms, config.burst_duration_ms, _SALT_BURST
        )
        self._brownout = self._windows(
            config.brownout_every_ms, config.brownout_duration_ms, _SALT_BROWNOUT
        )

    def _windows(
        self, every_ms: float, duration_ms: float, salt: int
    ) -> Optional[_Windows]:
        """The window clock of one fault class (None when it is off)."""
        if every_ms <= 0.0 or duration_ms <= 0.0:
            return None
        return _Windows(every_ms, duration_ms, self._seed, salt)

    # --- windows in virtual time ----------------------------------------------

    def outage_state(self, now_ms: float) -> Tuple[bool, float]:
        """(in-outage, ms-since-last-outage-ended) at ``now_ms``."""
        outage = self._outage
        return outage.state(now_ms) if outage is not None else (False, _INF)

    def _burst_active(self, now_ms: float) -> bool:
        burst = self._burst
        return burst is not None and burst.state(now_ms)[0]

    def _brownout_active(self, tenant: int, now_ms: float) -> bool:
        brownout = self._brownout
        return (
            brownout is not None
            and tenant == self.config.brownout_tenant
            and brownout.state(now_ms)[0]
        )

    # --- the decision the service consumes -------------------------------------

    def degraded(self, tenant: int, now_ms: float) -> bool:
        """Is any fault window (outage/recovery/burst/brownout) active?

        Used to label requests for degraded-mode metrics; pure, so the
        label is identical across client counts and processes.
        """
        outage = self._outage
        if outage is not None:
            in_outage, since_end = outage.state(now_ms)
            if in_outage or since_end < self.config.recovery_ramp_ms:
                return True
        if self._burst_active(now_ms):
            return True
        return self._brownout_active(tenant, now_ms)

    def decide(
        self, seq: int, attempt: int, tenant: int, now_ms: float
    ) -> Tuple[bool, float]:
        """Fate of one origin-fetch attempt: ``(failed, latency_multiplier)``.

        A full outage fails every attempt outright; otherwise the
        attempt draws against the (burst/brownout-elevated) transient
        error rate, and its latency is scaled by any active spike,
        brownout or post-outage slow-start multiplier.
        """
        cfg = self.config
        multiplier = 1.0
        outage = self._outage
        if outage is not None:
            in_outage, since_end = outage.state(now_ms)
            if in_outage:
                return True, 1.0
            if since_end < cfg.recovery_ramp_ms:
                # Linear slow-start: full penalty right after recovery,
                # back to 1x by the end of the ramp.
                frac = 1.0 - since_end / cfg.recovery_ramp_ms
                multiplier *= 1.0 + (cfg.recovery_multiplier - 1.0) * frac
        error_rate = cfg.error_rate
        if self._burst_active(now_ms):
            error_rate = max(error_rate, cfg.burst_error_rate)
        if self._brownout_active(tenant, now_ms):
            error_rate = max(error_rate, cfg.brownout_error_rate)
            multiplier *= cfg.brownout_multiplier
        seed = self._seed
        if cfg.spike_rate > 0.0 and _unit(seed, _SALT_SPIKE, seq, attempt) < cfg.spike_rate:
            multiplier *= cfg.spike_multiplier
        failed = error_rate > 0.0 and _unit(seed, _SALT_ERROR, seq, attempt) < error_rate
        return failed, multiplier
