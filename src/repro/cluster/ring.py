"""Consistent-hash ring with seeded virtual nodes and replication.

The fleet's router: ``num_shards`` cache shards each own ``vnodes``
points on a 64-bit ring, a key hashes to a point, and its *preference
order* is the clockwise walk from that point collecting distinct
shards.  The design choices are the standard ones (Karger rings,
Dynamo preference lists), made deterministic the repro way:

* **seeded virtual nodes** — point positions are ``mix_hash`` of
  ``(seed, shard, vnode)``, pure arithmetic with no ``hash()``
  involvement, so two processes (or two machines) build bit-identical
  rings;
* **replication factor R** — :meth:`HashRing.preference` returns up to
  R distinct shards; replica walks are how failover works: a dead
  shard is *skipped*, not removed, so the ring "heals" without moving
  any point and un-heals identically when the shard returns;
* **static topology, dynamic liveness** — the point set never changes
  mid-run.  Liveness is an argument to the walk, which keeps routing a
  pure function of ``(ring, key, live-mask)`` — the property the
  cluster's bit-identical failover golden rests on.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.address import mix_hash

_MASK64 = (1 << 64) - 1


class HashRing:
    """Seeded consistent-hash ring over ``num_shards`` shards."""

    def __init__(
        self,
        num_shards: int,
        *,
        replication: int = 2,
        vnodes: int = 64,
        seed: int = 0,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not 1 <= replication:
            raise ValueError("replication must be >= 1")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.num_shards = num_shards
        self.replication = min(replication, num_shards)
        self.vnodes = vnodes
        self.seed = seed
        points: List[Tuple[int, int]] = []
        for shard in range(num_shards):
            for v in range(vnodes):
                point = mix_hash(
                    ((seed & _MASK64) << 1)
                    ^ (shard * 0x9E3779B97F4A7C15)
                    ^ (v << 20)
                )
                points.append((point, shard))
        points.sort()
        self._points = points
        self._hashes = [p for p, _ in points]
        #: home shard of the arc ending at each point (liveness ignored)
        self._owners = [shard for _, shard in points]
        #: live mask -> preference tuple of the arc ending at each point,
        #: built the first time the mask is routed (None = all live)
        self._arcs: Dict[Optional[Tuple[bool, ...]], List[Tuple[int, ...]]] = {}

    # --- routing ------------------------------------------------------------------

    def route(
        self, key: int, live: Optional[Sequence[bool]] = None
    ) -> Tuple[Tuple[int, ...], int]:
        """``(preference, home)`` for ``key``: one hash, one bisect.

        ``preference`` is what :meth:`preference` returns (as a tuple)
        and ``home`` is what :meth:`primary` returns; both come from
        the arc the key falls in, looked up in the table of its live
        mask.
        """
        idx = bisect_left(self._hashes, mix_hash(key))
        if idx == len(self._owners):
            idx = 0  # past the last point: the ring wraps to the first
        if live is not None and live.__class__ is not tuple:
            live = tuple(live)
        arcs = self._arcs.get(live)
        if arcs is None:
            arcs = self._arcs[live] = self._build_arcs(live)
        return arcs[idx], self._owners[idx]

    def _build_arcs(
        self, live: Optional[Tuple[bool, ...]]
    ) -> List[Tuple[int, ...]]:
        """Every arc's preference tuple under one live mask.

        The clockwise walk from each point collecting distinct live
        shards: the walk :meth:`preference` describes, done once per
        point instead of once per request.
        """
        owners = self._owners
        n = len(owners)
        up = self.num_shards if live is None else sum(
            1 for shard in range(self.num_shards) if live[shard]
        )
        # A walk stops once it holds every shard it can get, so a mask
        # with fewer than R live shards never walks the ring in vain.
        want = min(self.replication, up)
        if want == 0:
            return [()] * n
        arcs: List[Tuple[int, ...]] = []
        for idx in range(n):
            chosen: List[int] = []
            for step in range(n):
                shard = owners[(idx + step) % n]
                if shard in chosen:
                    continue
                if live is not None and not live[shard]:
                    continue
                chosen.append(shard)
                if len(chosen) == want:
                    break
            arcs.append(tuple(chosen))
        return arcs

    def preference(
        self, key: int, live: Optional[Sequence[bool]] = None
    ) -> List[int]:
        """Up to ``replication`` distinct shards in preference order.

        The clockwise walk from the key's ring position, skipping dead
        shards when a ``live`` mask is given.  Element 0 is the
        (currently live) primary; a shard kill therefore shifts every
        key it owned one step down its preference list and *nothing
        else moves* — consistent hashing's whole point.  Returns fewer
        than R shards only when fewer than R are live.
        """
        return list(self.route(key, live)[0])

    def primary(self, key: int) -> int:
        """The key's home shard ignoring liveness (reroute accounting)."""
        return self.route(key)[1]

    # --- introspection ------------------------------------------------------------

    def describe(self) -> dict:
        """Topology summary for obs rows / debugging."""
        owned = [0] * self.num_shards
        for _, shard in self._points:
            owned[shard] += 1
        return {
            "num_shards": self.num_shards,
            "replication": self.replication,
            "vnodes": self.vnodes,
            "seed": self.seed,
            "points": len(self._points),
            "vnodes_per_shard": owned,
        }
