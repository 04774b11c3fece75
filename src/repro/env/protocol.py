"""The ``Environment`` protocol: one contract for every CHROME domain.

The repo grows by domain — the LLC hierarchy (``sim/``), the object
cache (``serve/``), the sharded fleet (``cluster/``), and whatever
lands next (Cold-RL's NGINX setting, Phoebe's storage model).  Each
domain drives the *same* RL core (:class:`~repro.env.driver.AgentCore`)
and differs only in its bindings; this module freezes what a domain
must provide so that a new domain is one adapter file, not a
subsystem:

* :class:`Observation` — the frozen per-step record: the sampled-unit
  index, the re-request key, the acting core/tenant, the hit/miss
  outcome, and the reward-split flag (``is_prefetch``/``is_refresh``).
  Hot bindings pass these as positional scalars instead (see the
  perf note in :mod:`repro.env.driver`); the dataclass is the
  reference form and the one the generic driver consumes.
* :class:`Environment` — the run-level contract: the adapter's
  keyword parameters are the domain's whole run spec (what an
  :class:`~repro.env.jobs.EnvJob` carries), ``run(obs=None)`` executes
  the whole domain loop and returns the domain's own picklable,
  value-equal result object (``SystemResult``, ``ServeMetrics``,
  ``ClusterMetrics``, ``OpsResult``, ...) as a pure function of that
  spec (run-twice equality is the conformance test's first claim), and
  ``agent_states()`` / ``load_agent_states()`` expose the
  version-tagged snapshot seam the ops layer (shadowing, rollback,
  warm starts) already speaks.

The action surface is shared by construction: every domain picks from
the same four actions (``ACTION_BYPASS`` + three insert/set-EPV
levels), with ``MISS_ACTIONS``/``HIT_ACTIONS`` defining legality —
that is what lets one Q-table geometry, one EQ, and one persistence
format serve every adapter.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, List


@dataclass(frozen=True)
class Observation:
    """One step as the agent sees it, before feature extraction.

    ``unit`` indexes the sampled-unit population (LLC set, store
    segment, DRAM bank), ``key`` is the re-request identity within it
    (block address, object key, row id), ``actor`` the core/tenant the
    obstruction monitor judges, ``hit`` the domain-resolved outcome of
    this step, and ``flag`` the reward-split bit (``is_prefetch`` for
    the LLC, ``is_refresh`` for serve, domain-defined elsewhere).
    ``size`` and ``pc`` carry the optional feature inputs domains that
    have them (serve sizes, LLC program counters) hand their extractor.
    """

    key: int
    unit: int
    actor: int = 0
    hit: bool = False
    flag: bool = False
    size: int = 0
    pc: int = 0


class Environment(ABC):
    """A runnable CHROME domain: spec in, metrics + agent snapshots out.

    Implementations are *one-shot*: construct from a frozen spec, call
    :meth:`run` once, read the results.  Determinism is part of the
    contract — two instances built from the same spec must produce
    equal :meth:`run` results and equal :meth:`agent_states`, on either
    Q-table backend (the conformance suite pins both claims for every
    registered adapter).
    """

    #: registry id ("sim", "serve", "cluster", "ops", "toy", ...)
    name: str = "env"
    #: persistence kind tag of this domain's agent snapshots
    snapshot_kind: str = "chrome-agent"
    #: part of every job fingerprint: bump when the domain's semantics
    #: change in a way that must invalidate cached results
    code_version: str = "1"

    @abstractmethod
    def run(self, obs=None) -> Any:
        """Execute the domain loop; return the domain's result object.

        ``obs`` is an optional :class:`repro.obs.ObsSession` the run
        records into; the result is identical with and without it.
        """

    @abstractmethod
    def agent_states(self) -> List[dict]:
        """Version-tagged JSON-safe snapshots of every live agent."""

    @abstractmethod
    def load_agent_states(
        self, states: List[dict], *, keep_rng: bool = False
    ) -> None:
        """Restore snapshots produced by :meth:`agent_states`.

        ``keep_rng`` preserves each agent's live exploration RNG (the
        ops rollback discipline: restored *learned* state must not
        rewind the exploration stream).
        """
