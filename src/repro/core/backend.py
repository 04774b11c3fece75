"""Execution-backend selection for the Q-table (scalar vs. numpy).

The repo ships two interchangeable Q-table implementations:

* :class:`~repro.core.qtable.QTable` — the **scalar** reference:
  plain nested lists, unrolled per-access loops, the golden-pinned
  semantics every committed artifact was generated with;
* :class:`~repro.core.qtable_np.QTableNumpy` — the **numpy** backend:
  each feature's sub-tables live in one ``(num_subtables, rows,
  NUM_ACTIONS)`` integer-tick array on the same 16-bit fixed-point
  grid, with vectorized batch kernels.

Both produce bit-identical results (see DESIGN.md §9 for the
exactness argument and ``tests/test_backend_differential.py`` for the
golden gate), so the backend is purely a performance knob: it never
changes metrics, goldens, or cache keys.  The choice of Q-table class
is all it picks; every run loop is the same on either backend.

Selection precedence, resolved at construction time:

1. an explicit ``ChromeConfig.backend`` value (serve policies take it
   as the ``backend`` policy parameter);
2. the ``REPRO_BACKEND`` environment variable (validated — a typo
   fails fast instead of silently running the default);
3. the default, ``"scalar"``.
"""

from __future__ import annotations

import os
from typing import Optional

#: recognized backend names (the CLI and env validation share this)
VALID_BACKENDS = ("scalar", "numpy")

_ENV_VAR = "REPRO_BACKEND"


def resolve_backend(backend: Optional[str] = None) -> str:
    """Return the effective backend name (explicit > env > default).

    Raises ``ValueError`` for unknown names and for ``numpy`` when
    numpy is not importable, so a misconfigured run fails loudly at
    construction instead of silently measuring the wrong thing.
    """
    source = "backend"
    if backend is None:
        backend = os.environ.get(_ENV_VAR)
        source = _ENV_VAR
    if backend is None or not str(backend).strip():
        return "scalar"
    name = str(backend).strip().lower()
    if name not in VALID_BACKENDS:
        raise ValueError(
            f"invalid {source} {backend!r}: choose from {VALID_BACKENDS}"
        )
    if name == "numpy":
        try:
            import numpy  # noqa: F401
        except ImportError as exc:  # pragma: no cover - numpy ships in CI
            raise ValueError(
                "backend 'numpy' requested but numpy is not installed"
            ) from exc
    return name


def make_qtable(num_features: int, config):
    """Build the Q-table implementation selected by ``config.backend``.

    Both classes expose the same surface (per-access ops, batch
    helpers, ``state_dict``/``load_state_dict``, introspection), and
    their snapshots are interchangeable, so callers never branch on
    the backend after construction.
    """
    kind = resolve_backend(getattr(config, "backend", None))
    if kind == "numpy":
        from .qtable_np import QTableNumpy

        return QTableNumpy(num_features, config)
    from .qtable import QTable

    return QTable(num_features, config)
