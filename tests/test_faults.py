"""Equivalence tests for :class:`repro.serve.faults.FaultInjector`.

The injector keeps each fault class's current and previous window
bounds so a query inside an evaluated window needs no hashing.  These
tests hold it to the plain formula — every window start recomputed
from its hash on every query — over query sequences that move forward
request by request, jump ahead to retry times, and jump back to
earlier arrivals.
"""

import random

import pytest

from repro.serve.faults import FaultConfig, FaultInjector
from repro.sim.address import mix_hash

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_INV_2_64 = 1.0 / float(1 << 64)


class ReferenceFaults:
    """The fault oracle computed from scratch on every query."""

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.seed = mix_hash((config.seed << 1) ^ 0xFA017)

    def unit(self, salt, a, b=0):
        h = mix_hash((self.seed ^ (salt * _GOLDEN64) ^ (a << 20) ^ b) & _MASK64)
        return h * _INV_2_64

    def window(self, now_ms, every_ms, duration_ms, salt):
        if every_ms <= 0.0 or duration_ms <= 0.0:
            return False, float("inf")
        span = max(0.0, every_ms - duration_ms)
        since_end = float("inf")
        k = int(now_ms // every_ms)
        for kk in (k, k - 1):
            if kk < 0:
                continue
            start = kk * every_ms + self.unit(salt, kk) * span
            end = start + duration_ms
            if start <= now_ms < end:
                return True, 0.0
            if now_ms >= end:
                since_end = min(since_end, now_ms - end)
        return False, since_end

    def outage_state(self, now_ms):
        cfg = self.config
        return self.window(now_ms, cfg.outage_every_ms, cfg.outage_duration_ms, 0x53)

    def burst(self, now_ms):
        cfg = self.config
        return self.window(now_ms, cfg.burst_every_ms, cfg.burst_duration_ms, 0x54)[0]

    def brownout(self, tenant, now_ms):
        cfg = self.config
        if tenant != cfg.brownout_tenant:
            return False
        return self.window(
            now_ms, cfg.brownout_every_ms, cfg.brownout_duration_ms, 0x55
        )[0]

    def degraded(self, tenant, now_ms):
        in_outage, since_end = self.outage_state(now_ms)
        if in_outage or since_end < self.config.recovery_ramp_ms:
            return True
        return self.burst(now_ms) or self.brownout(tenant, now_ms)

    def decide(self, seq, attempt, tenant, now_ms):
        cfg = self.config
        in_outage, since_end = self.outage_state(now_ms)
        if in_outage:
            return True, 1.0
        multiplier = 1.0
        if since_end < cfg.recovery_ramp_ms:
            frac = 1.0 - since_end / cfg.recovery_ramp_ms
            multiplier *= 1.0 + (cfg.recovery_multiplier - 1.0) * frac
        error_rate = cfg.error_rate
        if self.burst(now_ms):
            error_rate = max(error_rate, cfg.burst_error_rate)
        if self.brownout(tenant, now_ms):
            error_rate = max(error_rate, cfg.brownout_error_rate)
            multiplier *= cfg.brownout_multiplier
        if cfg.spike_rate > 0.0 and self.unit(0x52, seq, attempt) < cfg.spike_rate:
            multiplier *= cfg.spike_multiplier
        failed = error_rate > 0.0 and self.unit(0x51, seq, attempt) < error_rate
        return failed, multiplier


_ALL_ON = dict(
    error_rate=0.02,
    spike_rate=0.05,
    burst_every_ms=37.0,
    burst_duration_ms=6.0,
    burst_error_rate=0.7,
    outage_every_ms=53.0,
    outage_duration_ms=9.0,
    recovery_ramp_ms=11.0,
    brownout_tenant=1,
    brownout_every_ms=29.0,
    brownout_duration_ms=7.5,
)

CONFIGS = {
    "all_classes": FaultConfig(seed=7, **_ALL_ON),
    "other_seed": FaultConfig(seed=8, **_ALL_ON),
    # duration == every: the jitter span is zero, windows tile time
    "zero_jitter_span": FaultConfig(
        seed=3, outage_every_ms=20.0, outage_duration_ms=20.0,
        burst_every_ms=15.0, burst_duration_ms=15.0, recovery_ramp_ms=4.0,
    ),
    # duration > every: window k-1 still runs when window k starts
    "overlapping_windows": FaultConfig(
        seed=5, outage_every_ms=12.0, outage_duration_ms=17.0,
        brownout_tenant=0, brownout_every_ms=10.0, brownout_duration_ms=14.0,
        error_rate=0.01,
    ),
    "long_recovery_ramp": FaultConfig(
        seed=11, outage_every_ms=45.0, outage_duration_ms=5.0,
        recovery_ramp_ms=60.0, recovery_multiplier=6.0,
    ),
    "brownout_only": FaultConfig(
        seed=2, brownout_tenant=2, brownout_every_ms=23.0,
        brownout_duration_ms=8.0, brownout_error_rate=0.9,
    ),
    "off": FaultConfig(),
}


def _queries(rng, count):
    """(kind, time) pairs: request arrivals advancing 0.5 ms each,
    retry times after the current arrival, and jumps back."""
    now = 0.0
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.6:
            now += 0.5
            out.append(("arrival", now))
        elif roll < 0.85:
            out.append(("retry", now + rng.uniform(0.0, 70.0)))
        else:
            out.append(("back", max(0.0, now - rng.uniform(0.0, 90.0))))
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_injector_matches_reference_formula(name):
    config = CONFIGS[name]
    injector = FaultInjector(config)
    reference = ReferenceFaults(config)
    rng = random.Random(name)
    for seq, (kind, t) in enumerate(_queries(rng, 6000)):
        tenant = rng.randrange(4)
        attempt = 1 if kind == "arrival" else rng.randrange(2, 5)
        # The service's order at one arrival: degraded, then decide;
        # the cluster's live mask asks outage_state first.
        order = rng.randrange(3)
        if order == 0:
            assert injector.outage_state(t) == reference.outage_state(t), (kind, t)
        assert injector.degraded(tenant, t) == reference.degraded(tenant, t), (kind, t)
        assert injector.decide(seq, attempt, tenant, t) == reference.decide(
            seq, attempt, tenant, t
        ), (kind, t)
        if order == 1:
            assert injector.outage_state(t) == reference.outage_state(t), (kind, t)


def test_fresh_injectors_agree_whatever_was_asked_before():
    config = CONFIGS["all_classes"]
    warm = FaultInjector(config)
    for t in range(0, 4000, 3):
        warm.degraded(1, t * 0.5)
    reference = ReferenceFaults(config)
    for t in (1999.5, 0.0, 52.9, 53.0, 1000.25, 7.0, 1999.5):
        assert warm.outage_state(t) == reference.outage_state(t)
        assert FaultInjector(config).outage_state(t) == reference.outage_state(t)
        assert warm.degraded(1, t) == reference.degraded(1, t)


def test_fault_state_does_not_grow_with_the_horizon():
    injector = FaultInjector(CONFIGS["all_classes"])
    assert not hasattr(injector, "__dict__")
    windows = [injector._outage, injector._burst, injector._brownout]
    assert all(w is not None and not hasattr(w, "__dict__") for w in windows)
    for t in range(20000):
        injector.degraded(1, t * 0.5)
    assert all(not hasattr(w, "__dict__") for w in windows)


def test_disabled_classes_have_no_window_state():
    injector = FaultInjector(FaultConfig(outage_every_ms=10.0))
    assert injector._outage is None  # duration 0 disables the class
    assert injector._burst is None and injector._brownout is None
    assert injector.outage_state(5.0) == (False, float("inf"))
    assert injector.decide(0, 1, 0, 5.0) == (False, 1.0)
