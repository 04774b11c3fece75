"""``repro.cluster`` — a sharded cache fleet with Q-table federation.

The serving layer scaled out toward the north star's production tier:
a consistent-hash ring with seeded virtual nodes and replication
(:mod:`.ring`) routes one request stream over N independent
:class:`~repro.serve.service.CacheService` shards
(:mod:`.cluster`), each running its own CHROME serve agent.  Shard
kills are FaultConfig outage windows evaluated in virtual time, so the
ring reroutes and heals bit-identically at any client count; hot keys
are detected by windowed top-k (:mod:`.hotkeys`) and split across
replicas; and the shards' Q-tables are periodically merged in place
by entrywise averaging (:mod:`.federate`) — the fleet learns faster
than any isolated shard (the bench gate pins this).

Importing this package registers the ``cluster`` experiment with the
shared registry; its ``cluster`` :class:`~repro.env.jobs.EnvJob` specs
(:mod:`repro.cluster.env`) run on the parallel experiment engine like
every other experiment.
"""

from .cluster import ClusterMetrics, ClusterService
from .federate import federate_agents, merge_qtable_states
from .hotkeys import HotKeyDetector
from .ring import HashRing

from . import experiments as _experiments  # noqa: F401  (eager registration)

__all__ = [
    "ClusterMetrics",
    "ClusterService",
    "HashRing",
    "HotKeyDetector",
    "federate_agents",
    "merge_qtable_states",
]
