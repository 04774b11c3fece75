"""Request-stream generators for the object-cache serving layer.

The serving layer replays *request traces* the way the simulator
replays memory traces: a workload is a deterministic, seeded list of
:class:`Request` records, so every policy sees byte-identical traffic
and results are reproducible across processes (the engine's ``--jobs``
determinism guarantee extends to serve experiments).

Key-space conventions
---------------------
Object sizes are a *pure function of the key* (``object_size``): a key
always has the same size no matter which generator, phase or tenant
touches it — exactly like a real origin where ``GET /obj/123`` returns
the same body.  Generators carve disjoint key ranges per role (core
zipf set, scan sweeps, per-phase working sets, per-tenant namespaces)
so streams never alias by accident.

Generators (registered in :data:`WORKLOAD_SPECS` / :data:`WORKLOADS`):

* ``zipf``         — stationary Zipf(alpha) popularity over a fixed key set;
* ``zipf_scan``    — Zipf foreground polluted by periodic one-shot scan
  bursts of large objects (the classic LRU-killer);
* ``bursty``       — hot-spot bursts: a small hot set that is replaced
  every burst, over a Zipf background;
* ``phases``       — diurnal phase changes: the popularity ranking is
  re-drawn each phase, shifting the working set;
* ``multitenant``  — interleaved per-tenant streams with different
  behaviours (Zipf tenant, scanning tenant, bursty tenant, ...);
* ``proxy_burst``  — NGINX-style proxy traffic (Cold-RL): heavy-tailed
  foreground plus periodic *size-blind* storms of one-shot keys whose
  sizes match the foreground exactly, so no size heuristic can filter
  them;
* ``retrieval``    — semantic-retrieval / embedding-buffer access (Sun
  et al.): clustered near-duplicate keys around hot centroids, with the
  hot cluster set shifting as the query distribution drifts;
* ``storage_tier`` — reuse-aware storage streams (Phoebe): bimodal
  reuse distances (hot metadata vs. cold data extents) with periodic
  sequential flood phases.

A small fraction of requests can be marked ``is_refresh``: proactive
re-fetches of recently popular objects issued by the cache itself (the
software analogue of prefetches — same provenance split CHROME's
rewards use for demand vs. prefetch).

Every generator is described by a :class:`WorkloadSpec` carrying its
knobs (introspected from the signature), its related-work source, and
its *declared distribution invariants* — machine-checkable facts like
"storms recur periodically in namespace 5" or "the hot set drifts" —
which ``tests/test_workload_properties.py`` verifies generically for
every registry entry, so a new generator gets its correctness checks
for free by declaring itself here.
"""

from __future__ import annotations

import difflib
import inspect
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from ..sim.address import mix_hash

_MASK64 = (1 << 64) - 1

# Disjoint key-space bases (48-bit namespaces; tenant id sits above).
_ZIPF_BASE = 0
_SCAN_BASE = 1 << 40
_BURST_BASE = 2 << 40
_PHASE_BASE = 3 << 40
_PROXY_BASE = 4 << 40
_STORM_BASE = 5 << 40
_RETRIEVAL_BASE = 6 << 40
_STORAGE_BASE = 7 << 40
_FLOOD_BASE = 8 << 40
_TENANT_SHIFT = 48


def key_namespace(key: int) -> int:
    """The namespace id (bits 40..47) of a key, tenant bits excluded."""
    return (key >> 40) & 0xFF


@dataclass(frozen=True, slots=True)
class Request:
    """One cache request: a key, its object size, and provenance."""

    key: int
    size: int
    tenant: int = 0
    is_refresh: bool = False


# --- object sizes -------------------------------------------------------------

#: size classes (bytes) and their mixture weights: mostly small-to-medium
#: web-object sizes with a heavy tail, binned so the distribution is
#: reproducible without floating-point transcendentals.
_SIZE_CLASSES: Tuple[Tuple[int, int], ...] = (
    (128, 20),
    (512, 25),
    (2 << 10, 22),
    (8 << 10, 15),
    (16 << 10, 10),
    (32 << 10, 8),
    (48 << 10, 6),
)
_SIZE_TOTAL = sum(w for _, w in _SIZE_CLASSES)

#: scan objects occupy their own size band *above* every regular class
#: (disjoint log2 buckets): byte-capacity pollution is concentrated in
#: sizes that regular traffic never uses, like real batch/backup sweeps
_SCAN_SIZES: Tuple[int, ...] = (64 << 10, 80 << 10, 96 << 10)

#: embedding-buffer entries are near-uniform (a 4096-dim fp32 vector
#: plus header); the jitter below keeps byte accounting unquantized
#: without breaking the "all embeddings are the same order of size"
#: property
_EMBED_SIZE = 16 << 10

#: storage-tier extents are bimodal by *key range*, not by hash: bit 39
#: inside the storage namespace separates small metadata extents from
#: large data extents, so reuse behaviour and size correlate the way
#: they do on a real tier (hot inodes tiny, cold segments big).
_STORAGE_META_SIZE = 4 << 10
_STORAGE_DATA_SIZE = 64 << 10
_STORAGE_DATA_BIT = 1 << 39

#: sequential flood (backup/scrub) extents: full-size data segments
_FLOOD_SIZE = 64 << 10

#: upper bound on any object_size() result: the largest base class plus
#: its maximal jitter (base // 4 - 1).  The property harness checks
#: every generated size against this, and stores can rely on it when
#: sizing segments.
MAX_OBJECT_BYTES = max(_SCAN_SIZES) + max(_SCAN_SIZES) // 4


def object_size(key: int) -> int:
    """Deterministic per-key size draw (stable across runs/processes).

    The key's namespace picks the size band — scan keys draw from the
    large-object classes, retrieval keys are uniform embedding-sized,
    storage keys are bimodal metadata/data extents, flood keys are
    full data segments — and everything else (including proxy storm
    keys, deliberately: the storms are *size-blind*) draws from the
    mixed web-object distribution.  The size is jittered within its
    class so byte accounting is not quantized.
    """
    h = mix_hash(key * 0x9E3779B97F4A7C15 & _MASK64)
    ns = key_namespace(key)
    if ns == _SCAN_BASE >> 40:
        base = _SCAN_SIZES[h % len(_SCAN_SIZES)]
    elif ns == _RETRIEVAL_BASE >> 40:
        base = _EMBED_SIZE
    elif ns == _STORAGE_BASE >> 40:
        base = _STORAGE_DATA_SIZE if key & _STORAGE_DATA_BIT else _STORAGE_META_SIZE
    elif ns == _FLOOD_BASE >> 40:
        base = _FLOOD_SIZE
    else:
        pick = h % _SIZE_TOTAL
        base = _SIZE_CLASSES[-1][0]
        for size, weight in _SIZE_CLASSES:
            if pick < weight:
                base = size
                break
            pick -= weight
    jitter = (h >> 32) % max(1, base // 4)
    return base + jitter


# --- popularity sampling ------------------------------------------------------


def _zipf_cdf(num_keys: int, alpha: float) -> List[float]:
    """Cumulative Zipf(alpha) weights over ranks 1..num_keys."""
    acc = 0.0
    cdf: List[float] = []
    for rank in range(1, num_keys + 1):
        acc += rank**-alpha
        cdf.append(acc)
    total = cdf[-1]
    return [c / total for c in cdf]


class _ZipfSampler:
    """Seeded Zipf sampler over a permuted key set (rank != key order)."""

    def __init__(
        self, rng: random.Random, num_keys: int, alpha: float, base: int
    ) -> None:
        self._cdf = _zipf_cdf(num_keys, alpha)
        self._keys = [base + i for i in range(num_keys)]
        rng.shuffle(self._keys)  # decorrelate popularity rank from key value

    def sample(self, rng: random.Random) -> int:
        return self._keys[bisect_left(self._cdf, rng.random())]

    def top(self, count: int) -> List[int]:
        return self._keys[:count]

    def rotate(self, rng: random.Random, fraction: float) -> None:
        """Drift the popularity ranking: swap a slice of hot ranks with
        keys drawn from the whole set (trending content displacing
        yesterday's hits, gradually rather than all at once)."""
        n = len(self._keys)
        count = max(1, int(n * fraction))
        hot_span = max(count, n // 10)
        for _ in range(count):
            i = rng.randrange(hot_span)
            j = rng.randrange(n)
            self._keys[i], self._keys[j] = self._keys[j], self._keys[i]


def _maybe_refresh(
    rng: random.Random,
    out: List[Request],
    recent_hot: Sequence[int],
    refresh_fraction: float,
    tenant: int,
) -> None:
    """Emit a proactive refresh of a recently popular object."""
    if refresh_fraction > 0.0 and recent_hot and rng.random() < refresh_fraction:
        key = recent_hot[rng.randrange(len(recent_hot))]
        out.append(Request(key, object_size(key), tenant=tenant, is_refresh=True))


# --- generators ---------------------------------------------------------------


def zipf_requests(
    num_requests: int,
    seed: int = 0,
    *,
    num_keys: int = 4096,
    alpha: float = 0.9,
    tenant: int = 0,
    refresh_fraction: float = 0.02,
) -> List[Request]:
    """Stationary Zipf popularity over a fixed key set."""
    rng = random.Random((seed << 8) ^ 0x5E21F)
    tenant_base = tenant << _TENANT_SHIFT
    sampler = _ZipfSampler(rng, num_keys, alpha, tenant_base + _ZIPF_BASE)
    hot = sampler.top(max(8, num_keys // 64))
    out: List[Request] = []
    while len(out) < num_requests:
        key = sampler.sample(rng)
        out.append(Request(key, object_size(key), tenant=tenant))
        _maybe_refresh(rng, out, hot, refresh_fraction, tenant)
    return out[:num_requests]


def zipf_scan_requests(
    num_requests: int,
    seed: int = 0,
    *,
    num_keys: int = 4096,
    alpha: float = 0.9,
    scan_every: int = 400,
    scan_length: int = 120,
    tenant: int = 0,
    refresh_fraction: float = 0.02,
) -> List[Request]:
    """Zipf foreground with periodic one-shot scans of large objects.

    Every ``scan_every`` foreground requests, a burst of ``scan_length``
    *never-repeated* large objects sweeps through (think batch jobs or
    crawlers) — admission-blind policies let it flush the byte budget.
    """
    rng = random.Random((seed << 8) ^ 0x5CA17)
    tenant_base = tenant << _TENANT_SHIFT
    sampler = _ZipfSampler(rng, num_keys, alpha, tenant_base + _ZIPF_BASE)
    hot = sampler.top(max(8, num_keys // 64))
    out: List[Request] = []
    scan_cursor = tenant_base + _SCAN_BASE
    since_scan = 0
    while len(out) < num_requests:
        if since_scan >= scan_every:
            for _ in range(scan_length):
                key = scan_cursor
                scan_cursor += 1
                out.append(Request(key, object_size(key), tenant=tenant))
            since_scan = 0
            continue
        key = sampler.sample(rng)
        out.append(Request(key, object_size(key), tenant=tenant))
        since_scan += 1
        _maybe_refresh(rng, out, hot, refresh_fraction, tenant)
    return out[:num_requests]


def bursty_requests(
    num_requests: int,
    seed: int = 0,
    *,
    num_keys: int = 4096,
    alpha: float = 0.8,
    burst_every: int = 600,
    burst_length: int = 200,
    hot_set_size: int = 24,
    tenant: int = 0,
) -> List[Request]:
    """Hot-spot bursts over a Zipf background.

    Each burst hammers a small, freshly drawn hot set (a trending
    object going viral) then abandons it for the next one.
    """
    rng = random.Random((seed << 8) ^ 0xB0057)
    tenant_base = tenant << _TENANT_SHIFT
    sampler = _ZipfSampler(rng, num_keys, alpha, tenant_base + _ZIPF_BASE)
    out: List[Request] = []
    burst_id = 0
    position = 0
    while len(out) < num_requests:
        if position and position % burst_every == 0:
            burst_id += 1
            hot = [
                tenant_base + _BURST_BASE + burst_id * 4096 + i
                for i in range(hot_set_size)
            ]
            for _ in range(burst_length):
                key = hot[rng.randrange(hot_set_size)]
                out.append(Request(key, object_size(key), tenant=tenant))
        key = sampler.sample(rng)
        out.append(Request(key, object_size(key), tenant=tenant))
        position += 1
    return out[:num_requests]


def phase_requests(
    num_requests: int,
    seed: int = 0,
    *,
    num_keys: int = 4096,
    alpha: float = 0.9,
    num_phases: int = 4,
    tenant: int = 0,
    refresh_fraction: float = 0.02,
) -> List[Request]:
    """Diurnal phases: each phase re-draws the popularity ranking.

    Within a phase the stream is stationary Zipf; at a phase boundary a
    fresh key set becomes popular (morning news vs. evening video), so
    policies must adapt instead of trusting stale frequency counts.
    """
    rng = random.Random((seed << 8) ^ 0xD1A17)
    tenant_base = tenant << _TENANT_SHIFT
    per_phase = max(1, num_requests // num_phases)
    out: List[Request] = []
    for phase in range(num_phases):
        base = tenant_base + _PHASE_BASE + phase * (num_keys * 4)
        sampler = _ZipfSampler(rng, num_keys, alpha, base)
        hot = sampler.top(max(8, num_keys // 64))
        target = num_requests if phase == num_phases - 1 else (phase + 1) * per_phase
        while len(out) < target:
            key = sampler.sample(rng)
            out.append(Request(key, object_size(key), tenant=tenant))
            _maybe_refresh(rng, out, hot, refresh_fraction, tenant)
    return out[:num_requests]


def multitenant_requests(
    num_requests: int,
    seed: int = 0,
    *,
    num_tenants: int = 4,
    num_keys: int = 2048,
) -> List[Request]:
    """Interleaved tenants with different behaviours sharing one cache.

    Tenant 0 is a well-behaved Zipf service, tenant 1 a scanner (batch
    analytics), tenant 2 bursty (social traffic), further tenants are
    Zipf with decreasing traffic share.  The interleave is a seeded
    weighted shuffle, so cross-tenant contention is reproducible.
    """
    rng = random.Random((seed << 8) ^ 0x7E4A47)
    shares = [max(1, 8 >> t) for t in range(num_tenants)]  # 8,4,2,1,1,...
    total_share = sum(shares)
    per_tenant = [
        max(1, num_requests * share // total_share) for share in shares
    ]
    # Integer shares round down; tenant 0 absorbs the shortfall so the
    # merged stream always has exactly num_requests entries.
    shortfall = num_requests - sum(per_tenant)
    if shortfall > 0:
        per_tenant[0] += shortfall
    streams: List[List[Request]] = []
    for tenant in range(num_tenants):
        n = per_tenant[tenant]
        if tenant == 1:
            streams.append(
                zipf_scan_requests(
                    n, seed=seed + 101 * tenant, num_keys=num_keys,
                    scan_every=150, scan_length=100, tenant=tenant,
                )
            )
        elif tenant == 2:
            streams.append(
                bursty_requests(
                    n, seed=seed + 101 * tenant, num_keys=num_keys, tenant=tenant
                )
            )
        else:
            streams.append(
                zipf_requests(
                    n, seed=seed + 101 * tenant, num_keys=num_keys, tenant=tenant
                )
            )
    # Weighted merge: pop from a random non-empty stream, weighted by
    # how many requests it still owes — preserves per-stream order.
    cursors = [0] * num_tenants
    out: List[Request] = []
    while len(out) < num_requests:
        remaining = [len(s) - c for s, c in zip(streams, cursors)]
        total = sum(remaining)
        if total == 0:
            break
        pick = rng.randrange(total)
        for tenant, rem in enumerate(remaining):
            if pick < rem:
                out.append(streams[tenant][cursors[tenant]])
                cursors[tenant] += 1
                break
            pick -= rem
    return out[:num_requests]


def proxy_burst_requests(
    num_requests: int,
    seed: int = 0,
    *,
    num_keys: int = 4096,
    alpha: float = 1.1,
    storm_every: int = 400,
    storm_length: int = 160,
    storm_echo: float = 0.55,
    drift_every: int = 0,
    drift_fraction: float = 0.04,
    tenant: int = 0,
    refresh_fraction: float = 0.02,
) -> List[Request]:
    """NGINX-style proxy traffic with size-blind one-shot burst storms.

    The foreground is a hot Zipf(alpha) mix of web objects; setting
    ``drift_every > 0`` makes its popularity ranking drift (every that
    many requests a slice of the hot ranks is displaced by keys from
    the long tail).  Every ``storm_every`` foreground requests a storm
    of ``storm_length`` cold keys sweeps through — a crawler hitting
    cold URLs, a cache-busting query-string flood.  Unlike ``zipf_scan``
    the storm objects draw from the *same* size distribution as the
    foreground (Cold-RL's size-blind bursts), so size-aware admission
    heuristics get no signal.  A ``storm_echo`` fraction of each storm
    revisits keys from the *previous* storm exactly once (a crawler's
    retry pass) and then abandons them: fixed two-touches-means-hot
    admission rules promote those dead keys into their long-lived
    queue, while a learning policy can discover that a second touch in
    this traffic still predicts nothing.
    """
    rng = random.Random((seed << 8) ^ 0xC01D2)
    tenant_base = tenant << _TENANT_SHIFT
    sampler = _ZipfSampler(rng, num_keys, alpha, tenant_base + _PROXY_BASE)
    hot = sampler.top(max(8, num_keys // 64))
    out: List[Request] = []
    storm_cursor = tenant_base + _STORM_BASE
    prev_fresh: List[int] = []
    since_storm = 0
    since_drift = 0
    while len(out) < num_requests:
        if since_storm >= storm_every:
            fresh: List[int] = []
            echoes = iter(prev_fresh)
            for _ in range(storm_length):
                key = next(echoes, None) if rng.random() < storm_echo else None
                if key is None:
                    key = storm_cursor
                    storm_cursor += 1
                    fresh.append(key)
                out.append(Request(key, object_size(key), tenant=tenant))
            prev_fresh = fresh
            since_storm = 0
            continue
        if drift_every > 0 and since_drift >= drift_every:
            sampler.rotate(rng, drift_fraction)
            hot = sampler.top(max(8, num_keys // 64))
            since_drift = 0
        key = sampler.sample(rng)
        out.append(Request(key, object_size(key), tenant=tenant))
        since_storm += 1
        since_drift += 1
        _maybe_refresh(rng, out, hot, refresh_fraction, tenant)
    return out[:num_requests]


def retrieval_requests(
    num_requests: int,
    seed: int = 0,
    *,
    num_clusters: int = 1024,
    cluster_size: int = 8,
    hot_clusters: int = 112,
    alpha: float = 1.1,
    shift_every: int = 4000,
    shift_fraction: float = 0.15,
    neighbor_fraction: float = 0.55,
    neighbor_span: int = 1 << 16,
    revisit_fraction: float = 0.35,
    revisit_window: int = 6144,
    session_fraction: float = 0.2,
    session_length: int = 300,
    tail_fraction: float = 0.1,
    tenant: int = 0,
    refresh_fraction: float = 0.0,
) -> List[Request]:
    """Semantic-retrieval / embedding-buffer access with query drift.

    Keys are embedding-buffer entries grouped into clusters of
    near-duplicates.  A query lands on a cluster — Zipf(alpha) over the
    current *hot* cluster subset, with a ``tail_fraction`` of uniform
    misses over all clusters — and touches either one of the cluster's
    few curated members (skewed toward the centroid) or, with
    probability ``neighbor_fraction``, a near-duplicate drawn from the
    cluster's huge ANN-neighbor span.  A neighbor is *revisited* at
    most once — with probability ``revisit_fraction`` a neighbor query
    re-touches an entry from a few hundred queries back (the paraphrase
    of a recent question landing on the same ANN result) — and is then
    dead forever.  Two-touches-means-hot admission rules promote those
    dead neighbors into their long-lived queue; learned admission can
    keep treating them as pollution.  Every ``shift_every`` requests a
    ``shift_fraction`` slice of the hot cluster subset is replaced by
    cold clusters: the query distribution drifts gradually, so stale
    frequency counts also mislead.

    A ``session_fraction`` of queries belongs to the active
    *conversation session*: a fresh cluster hammered for
    ``session_length`` session queries (follow-up questions in one
    chat) and then abandoned forever.  Sessions punish pure frequency
    ranking twice — a new session's entries lose the count race while
    they ramp, and a finished session's entries keep their high counts
    as dead weight — while recency-aware eviction recycles them.
    """
    rng = random.Random((seed << 8) ^ 0x2E721)
    tenant_base = tenant << _TENANT_SHIFT
    cluster_stride = max(cluster_size + neighbor_span, 1 << 17)
    cdf = _zipf_cdf(hot_clusters, alpha)
    all_clusters = list(range(num_clusters))

    def cluster_base(cluster: int) -> int:
        return tenant_base + _RETRIEVAL_BASE + cluster * cluster_stride

    out: List[Request] = []
    hot: List[int] = []
    # ring buffer of not-yet-revisited neighbor keys; a revisit consumes
    # its slot so every neighbor is touched at most twice in total
    pending: List[int | None] = [None] * max(1, revisit_window)
    pending_at = 0
    session_id = 0
    session_left = max(1, session_length)
    queries = 0
    while len(out) < num_requests:
        if not hot:
            hot = rng.sample(all_clusters, hot_clusters)
        elif queries % shift_every == 0:
            cold = [c for c in all_clusters if c not in set(hot)]
            for _ in range(max(1, int(hot_clusters * shift_fraction))):
                hot[rng.randrange(hot_clusters)] = cold[rng.randrange(len(cold))]
        queries += 1
        roll = rng.random()
        if session_fraction > 0.0 and roll < session_fraction:
            # conversation-session traffic: a fresh, short-lived cluster
            session_left -= 1
            if session_left <= 0:
                session_id += 1
                session_left = session_length
            # sessions allocate from one contiguous arena (the shared
            # `session:` keyspace prefix), not one cluster stride each
            member = min(int(rng.random() ** 2 * cluster_size), cluster_size - 1)
            key = (
                cluster_base(num_clusters)
                + session_id * cluster_size
                + member
            )
            out.append(Request(key, object_size(key), tenant=tenant))
            continue
        if roll < session_fraction + tail_fraction:
            cluster = all_clusters[rng.randrange(num_clusters)]
        else:
            cluster = hot[bisect_left(cdf, rng.random())]
        base = cluster_base(cluster)
        if rng.random() < neighbor_fraction:
            key = None
            if rng.random() < revisit_fraction:
                slot = rng.randrange(len(pending))
                key = pending[slot]
                pending[slot] = None
            if key is None:
                key = base + cluster_size + rng.randrange(neighbor_span)
                pending[pending_at] = key
                pending_at = (pending_at + 1) % len(pending)
        else:
            # quadratic skew toward member 0, the centroid
            member = int(rng.random() ** 2 * cluster_size)
            key = base + min(member, cluster_size - 1)
        out.append(Request(key, object_size(key), tenant=tenant))
        centroids = [cluster_base(c) for c in hot[: max(4, hot_clusters // 8)]]
        _maybe_refresh(rng, out, centroids, refresh_fraction, tenant)
    return out[:num_requests]


def storage_tier_requests(
    num_requests: int,
    seed: int = 0,
    *,
    num_hot_extents: int = 512,
    num_cold_extents: int = 16384,
    hot_fraction: float = 0.55,
    flood_every: int = 1500,
    flood_length: int = 300,
    tenant: int = 0,
) -> List[Request]:
    """Reuse-aware storage-tier streams with bimodal reuse distances.

    Two populations share the tier: small hot metadata extents with
    short reuse distances (``hot_fraction`` of steady-state traffic)
    and large cold data extents touched near-uniformly, whose reuse
    distance is of the order of the whole cold set.  Every
    ``flood_every`` requests a sequential flood of ``flood_length``
    one-shot extents sweeps through (backup / scrub / migration) —
    Phoebe's setting, where a policy must keep the metadata resident,
    admit cold data selectively, and let floods pass untouched.
    """
    rng = random.Random((seed << 8) ^ 0x5707A)
    tenant_base = tenant << _TENANT_SHIFT
    hot_sampler = _ZipfSampler(
        rng, num_hot_extents, 0.7, tenant_base + _STORAGE_BASE
    )
    cold_base = tenant_base + _STORAGE_BASE + _STORAGE_DATA_BIT
    out: List[Request] = []
    flood_cursor = tenant_base + _FLOOD_BASE
    since_flood = 0
    while len(out) < num_requests:
        if since_flood >= flood_every:
            for _ in range(flood_length):
                key = flood_cursor
                flood_cursor += 1
                out.append(Request(key, object_size(key), tenant=tenant))
            since_flood = 0
            continue
        if rng.random() < hot_fraction:
            key = hot_sampler.sample(rng)
        else:
            key = cold_base + rng.randrange(num_cold_extents)
        out.append(Request(key, object_size(key), tenant=tenant))
        since_flood += 1
    return out[:num_requests]


# --- registry -----------------------------------------------------------------

WorkloadFn = Callable[..., List[Request]]


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered generator: its function, provenance and contract.

    ``invariants`` declares machine-checkable distribution facts the
    property harness (``tests/test_workload_properties.py``) verifies
    for every registry entry without per-generator test code:

    * ``hot_skew_min``      — the top 10% of distinct keys (by
      frequency) carry at least this fraction of all requests;
    * ``one_shot_min``      — at least this fraction of distinct keys
      is requested exactly once;
    * ``periodic_namespace`` — requests whose :func:`key_namespace`
      equals this id arrive in >= 3 contiguous bursts with regular
      spacing (periodic storms / scans / floods);
    * ``tenants_min``       — the stream spans at least this many
      distinct tenants;
    * ``drift_max_overlap`` — the top-50 hot keys of the first and
      last stream quarter overlap (Jaccard) at most this much.
    """

    name: str
    fn: WorkloadFn
    description: str
    source: str  # related-work provenance (paper / system)
    invariants: Mapping[str, object] = field(default_factory=dict)

    @property
    def knobs(self) -> Dict[str, object]:
        """Keyword knobs and their defaults, introspected from ``fn``."""
        sig = inspect.signature(self.fn)
        return {
            p.name: p.default
            for p in sig.parameters.values()
            if p.kind == inspect.Parameter.KEYWORD_ONLY
        }


WORKLOAD_SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "zipf",
            zipf_requests,
            "stationary Zipf popularity over a fixed key set",
            "classic web-cache baseline",
            invariants={"hot_skew_min": 0.45},
        ),
        WorkloadSpec(
            "zipf_scan",
            zipf_scan_requests,
            "Zipf foreground polluted by periodic one-shot large-object scans",
            "CHROME Sec. III-A (bypass motivation)",
            invariants={
                "hot_skew_min": 0.4,
                "one_shot_min": 0.2,
                "periodic_namespace": _SCAN_BASE >> 40,
            },
        ),
        WorkloadSpec(
            "bursty",
            bursty_requests,
            "hot-spot bursts: a fresh trending hot set every burst",
            "CDN flash-crowd behaviour",
            invariants={
                "hot_skew_min": 0.4,
                "periodic_namespace": _BURST_BASE >> 40,
            },
        ),
        WorkloadSpec(
            "phases",
            phase_requests,
            "diurnal phases: popularity ranking re-drawn each phase",
            "CHROME Sec. III-B (adaptability)",
            invariants={"hot_skew_min": 0.4, "drift_max_overlap": 0.2},
        ),
        WorkloadSpec(
            "multitenant",
            multitenant_requests,
            "interleaved tenants with clashing behaviours on one cache",
            "shared-cache serving tiers",
            invariants={"tenants_min": 4},
        ),
        WorkloadSpec(
            "proxy_burst",
            proxy_burst_requests,
            "heavy-tailed proxy traffic with size-blind one-shot storms",
            "Cold-RL (NGINX eviction)",
            invariants={
                "hot_skew_min": 0.5,
                "one_shot_min": 0.25,
                "periodic_namespace": _STORM_BASE >> 40,
            },
        ),
        WorkloadSpec(
            "retrieval",
            retrieval_requests,
            "clustered near-duplicate embedding lookups with query drift",
            "Sun et al. (semantic retrieval caching)",
            invariants={
                "hot_skew_min": 0.35,
                "one_shot_min": 0.3,
                "drift_max_overlap": 0.3,
            },
        ),
        WorkloadSpec(
            "storage_tier",
            storage_tier_requests,
            "bimodal reuse distances plus sequential flood phases",
            "Phoebe (storage-tier caching)",
            invariants={
                "one_shot_min": 0.3,
                "periodic_namespace": _FLOOD_BASE >> 40,
            },
        ),
    )
}

#: name -> generator function (the stable, minimal registry surface)
WORKLOADS: Dict[str, WorkloadFn] = {
    name: spec.fn for name, spec in WORKLOAD_SPECS.items()
}


def build_workload(
    name: str, num_requests: int, seed: int = 0, **params
) -> List[Request]:
    """Build a named request stream (the serve adapters' entry point).

    Unknown names raise a :class:`KeyError` that lists the registry and
    suggests the nearest spelling; unknown knobs raise a
    :class:`TypeError` that names the workload's valid knobs — both so
    a typo in a CLI flag or a config file fails with a message that
    says what to fix.
    """
    try:
        spec = WORKLOAD_SPECS[name]
    except KeyError:
        message = f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        close = difflib.get_close_matches(name, WORKLOADS, n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        raise KeyError(message) from None
    knobs = spec.knobs
    unknown = sorted(set(params) - set(knobs))
    if unknown:
        raise TypeError(
            f"unknown parameter(s) {unknown} for workload {name!r}; "
            f"valid knobs: {sorted(knobs)}"
        )
    return spec.fn(num_requests, seed, **params)
