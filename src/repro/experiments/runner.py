"""Run sizes and LLC policy construction shared by every experiment.

Experiments are plans of :class:`~repro.env.jobs.EnvJob`
specs executed by the :class:`~repro.experiments.engine.Engine`; this
module holds what those specs are built from: :class:`ExperimentScale`
(run size) and :func:`resolve_policy` / :func:`chrome_with` (the
scale-aware policy constructors).

Run sizes are governed by :class:`ExperimentScale`; the defaults are a
laptop-friendly reduction of the paper's 50M-warmup + 200M-instruction
runs and can be overridden through environment variables:

* ``REPRO_SCALE`` — machine/working-set scale factor (default 1/16);
* ``REPRO_ACCESSES`` — measured memory accesses per core;
* ``REPRO_WARMUP`` — warmup accesses per core;
* ``REPRO_WORKLOADS`` — cap on workloads per figure (0 = all);
* ``REPRO_MIXES`` — heterogeneous mixes for Fig. 10-style sweeps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..core.chrome import ChromePolicy, make_nchrome_policy
from ..core.config import ChromeConfig
from ..sim.replacement import make_policy
from ..sim.replacement.base import ReplacementPolicy


def _env_float(name: str, default: float, minimum_exclusive: float = 0.0) -> float:
    """Parse a float env override; empty/unset falls back to the default.

    Typos raise a clear error naming the variable instead of a bare
    ``ValueError``, and non-positive values are rejected (every scale
    knob is a strictly positive quantity).
    """
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name}={raw!r} is not a valid number"
        ) from None
    if value <= minimum_exclusive:
        raise ValueError(
            f"environment variable {name}={raw!r} must be > {minimum_exclusive:g}"
        )
    return value


def _env_int(name: str, default: int, minimum: int = 1) -> int:
    """Parse an integer env override; empty/unset falls back to the default.

    Rejects non-integers (e.g. ``REPRO_ACCESSES=24k``) with an error
    naming the variable, and values below ``minimum`` (count caps where
    0 means "no cap" pass ``minimum=0``).
    """
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name}={raw!r} is not a valid integer"
        ) from None
    if value < minimum:
        raise ValueError(
            f"environment variable {name}={raw!r} must be >= {minimum}"
        )
    return value


@dataclass(frozen=True)
class ExperimentScale:
    """Run-size knobs shared by every experiment."""

    machine_scale: float = 1.0 / 16.0
    accesses_per_core: int = 24_000
    warmup_per_core: int = 6_000
    workload_limit: int = 8  # 0 = all workloads
    hetero_mixes: int = 12

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        base = cls()
        return cls(
            machine_scale=_env_float("REPRO_SCALE", base.machine_scale),
            accesses_per_core=_env_int("REPRO_ACCESSES", base.accesses_per_core),
            # Warmup may legitimately be disabled (0); the workload cap
            # uses 0 as the documented "all workloads" sentinel.
            warmup_per_core=_env_int("REPRO_WARMUP", base.warmup_per_core, minimum=0),
            workload_limit=_env_int("REPRO_WORKLOADS", base.workload_limit, minimum=0),
            hetero_mixes=_env_int("REPRO_MIXES", base.hetero_mixes),
        )

    def with_overrides(self, **overrides) -> "ExperimentScale":
        """A copy with the given fields replaced; ``None`` values are
        ignored (so CLI args can be forwarded verbatim)."""
        clean = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **clean) if clean else self

    def limit_workloads(self, names: Sequence[str]) -> List[str]:
        if self.workload_limit and self.workload_limit < len(names):
            # Even spread keeps suite diversity when truncating.
            step = len(names) / self.workload_limit
            return [names[int(i * step)] for i in range(self.workload_limit)]
        return list(names)


#: sampled training sets at the paper's full machine scale (Sec. V-D)
SAMPLED_SETS_FULL_SCALE = 64


def resolve_policy(name: str, machine_scale: float = 1.0) -> ReplacementPolicy:
    """A fresh LLC policy by registry name (``lru``, ``chrome``, ...).

    When the machine is scaled down, every sampling-trained scheme
    (Hawkeye, Glider, Mockingjay, CARE, CHROME) gets its sampled-set
    count scaled *up* by the same factor: the paper's constant 64 sets
    yields a fixed number of training observations per instruction at
    full scale, and a 1/16-scale run must preserve that training
    density or every learning scheme is unfairly under-trained.  The
    hardware-overhead tables (III, IV, VII) always use the full-scale
    64-set geometry.
    """
    sampled = scaled_sampled_sets(machine_scale)
    if name == "chrome":
        return ChromePolicy(replace(ChromeConfig(), sampled_sets=sampled))
    if name == "n-chrome":
        return make_nchrome_policy(replace(ChromeConfig(), sampled_sets=sampled))
    instance = make_policy(name)
    if hasattr(instance, "_sampled_target"):
        instance._sampled_target = sampled
    return instance


def scaled_sampled_sets(machine_scale: float) -> int:
    """Training-density-preserving sampled-set count for a scaled run."""
    if machine_scale >= 1.0:
        return SAMPLED_SETS_FULL_SCALE
    return int(SAMPLED_SETS_FULL_SCALE / machine_scale)


def chrome_with(
    *,
    features: Optional[Tuple[str, ...]] = None,
    eq_fifo_size: Optional[int] = None,
    alpha: Optional[float] = None,
    gamma: Optional[float] = None,
    epsilon: Optional[float] = None,
    sampled_sets: Optional[int] = None,
) -> ChromePolicy:
    """Convenience factory for CHROME variants used in the sensitivity
    studies (Figs. 15-16, Table VII)."""
    config = ChromeConfig()
    overrides = {}
    if sampled_sets is not None:
        overrides["sampled_sets"] = sampled_sets
    if features is not None:
        overrides["features"] = features
    if eq_fifo_size is not None:
        overrides["eq_fifo_size"] = eq_fifo_size
    if alpha is not None:
        overrides["alpha"] = alpha
    if gamma is not None:
        overrides["gamma"] = gamma
    if epsilon is not None:
        overrides["epsilon"] = epsilon
    if overrides:
        config = replace(config, **overrides)
    return ChromePolicy(config)
