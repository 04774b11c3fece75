"""Environment adapter registry.

Adapters register a *factory* under their domain name — in practice
the adapter class, whose keyword parameters are the one declaration
of that domain's run spec — returning a fresh
:class:`~repro.env.protocol.Environment`.  :class:`~repro.env.jobs.EnvJob`
binds its parameters against that signature.  The conformance suite
(``tests/test_env_protocol.py``) parametrizes over every registered
name, so registering an adapter is what buys it the protocol
guarantees (determinism, save/restore round-trip, backend identity).

The first registry query registers the built-in adapters (sim, serve,
cluster, ops, toy) — same discipline as the experiment registry: no
private bootstrap calls.
"""

from __future__ import annotations

from typing import Callable, Dict, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .protocol import Environment

EnvironmentFactory = Callable[..., "Environment"]

#: name -> adapter factory
ENVIRONMENTS: Dict[str, EnvironmentFactory] = {}

_BUILTINS_LOADED = False


def _load_builtin_adapters() -> None:
    """Import the built-in adapter modules (each self-registers).

    Lazy on first registry query — the adapters import the domain
    packages (which themselves import :mod:`repro.env.driver`), so an
    eager import here would cycle during package initialization.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from . import toy as _toy  # noqa: F401
    from ..sim import env as _sim_env  # noqa: F401
    from ..serve import env as _serve_env  # noqa: F401
    from ..cluster import env as _cluster_env  # noqa: F401
    from ..ops import env as _ops_env  # noqa: F401


def register_environment(name: str, factory: EnvironmentFactory) -> None:
    """Register an environment adapter (last registration wins)."""
    ENVIRONMENTS[name] = factory


def available_environments() -> List[str]:
    """Sorted names of every registered environment adapter."""
    _load_builtin_adapters()
    return sorted(ENVIRONMENTS)


def environment_factory(name: str) -> EnvironmentFactory:
    """The factory registered under ``name`` (KeyError names the choices)."""
    _load_builtin_adapters()
    try:
        return ENVIRONMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown environment {name!r}; "
            f"available: {available_environments()}"
        ) from None


def build_environment(name: str, **overrides) -> "Environment":
    """Instantiate a registered adapter with keyword overrides."""
    return environment_factory(name)(**overrides)
