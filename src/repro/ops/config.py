"""The frozen spec of one live-operations control loop.

:class:`OpsConfig` declares everything the :class:`~repro.ops.controller.
OpsController` does at window boundaries: whether a shadow challenger
runs, when it is promoted, which guardrail thresholds arm auto-rollback,
how often last-known-good snapshots are taken, and (for benches/CI) when
a simulated bad deploy is injected.  Like every other config in the
repo it is a frozen, literal-only dataclass with a spec-tuple
``params()`` form, so it embeds in frozen job specs, crosses process
boundaries, and keys caches.

Epochs are **request windows**: every ``window`` global sequence
numbers the controller evaluates the window that just ended.  All
thresholds compare against :class:`~repro.obs.signals.WindowSignals`
values — window byte-hit (EWMA-smoothed for the trip decision), window
p99 in virtual ms, and the error/shed/breaker-denied fractions — so
every decision is a pure function of (seed, sequence number), never of
wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Tuple

#: the spec-tuple form frozen job dataclasses embed: ((name, value), ...)
Params = Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class OpsConfig:
    """Knobs of the shadow / hot-swap / guardrail state machine.

    Disabled-state conventions match :class:`~repro.serve.resilience.
    ResilienceConfig`: ``0`` / ``-1`` / ``>= 1.0`` turn a knob off, and
    the all-defaults config is *inert* — no shadow, no promotion, no
    guardrail, no injection — so attaching it changes nothing.
    """

    #: requests per evaluation window (the ops epoch)
    window: int = 256
    #: challenger policy name ("" = no shadow evaluation)
    challenger_policy: str = ""
    #: literal policy params for the challenger (picklable spec tuples)
    challenger_params: Params = ()
    #: consecutive winning windows that promote the challenger (0 = never)
    promote_after: int = 0
    #: challenger window byte-hit must beat champion by this margin
    promote_margin: float = 0.0
    #: trip when the window p99 exceeds this many virtual ms (0 = off)
    max_p99_ms: float = 0.0
    #: trip when the byte-hit EWMA falls below this ratio (< 0 = off)
    min_byte_hit_ewma: float = -1.0
    #: trip when a window's error fraction exceeds this (>= 1 = off)
    max_error_fraction: float = 1.0
    #: trip when a window's shed fraction exceeds this (>= 1 = off)
    max_shed_fraction: float = 1.0
    #: trip when a window's breaker-denied fraction exceeds this (>= 1 = off)
    max_breaker_denied_fraction: float = 1.0
    #: EWMA weight of the newest window's byte-hit sample
    ewma_beta: float = 0.35
    #: consecutive breaching windows required to trip the guardrail
    trip_after: int = 2
    #: measured windows observed before the guardrail arms (EWMA settle)
    warmup_windows: int = 2
    #: measured windows the guardrail holds fire after a rollback
    cooldown_windows: int = 4
    #: push a last-known-good snapshot every N healthy windows (0 = off;
    #: snapshots need a learned policy, so the default stays off)
    snapshot_every: int = 0
    #: snapshots retained in the in-memory ring
    ring_capacity: int = 4
    #: inject a simulated bad deploy at the end of this absolute window
    #: index (-1 = never) — the bench/CI degradation scenario
    degrade_at_window: int = -1

    @property
    def shadow_enabled(self) -> bool:
        return bool(self.challenger_policy)

    @property
    def guard_enabled(self) -> bool:
        """Any rollback threshold armed?"""
        return (
            self.max_p99_ms > 0.0
            or self.min_byte_hit_ewma >= 0.0
            or self.max_error_fraction < 1.0
            or self.max_shed_fraction < 1.0
            or self.max_breaker_denied_fraction < 1.0
        )

    def params(self) -> Params:
        """Spec-tuple form for embedding in an ``ops`` job's ``ops_params``."""
        return tuple((f.name, getattr(self, f.name)) for f in fields(self))

    @classmethod
    def from_params(cls, params: Params) -> "OpsConfig":
        """Rebuild from :meth:`params` output (tuples round-trip as-is)."""
        kwargs = dict(params)
        challenger = kwargs.get("challenger_params")
        if challenger is not None:
            kwargs["challenger_params"] = tuple(
                (str(k), v) for k, v in challenger
            )
        return cls(**kwargs)
