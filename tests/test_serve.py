"""Unit tests for the serving layer: workloads, store, policies,
agent facade, and the concurrent service's determinism guarantees."""

import asyncio

import pytest

from repro.serve.agent import (
    BackendObstructionMonitor,
    ChromeServePolicy,
    ServeFeatureExtractor,
)
from repro.serve.metrics import percentile
from repro.serve.policies import (
    SERVE_POLICIES,
    GDSFServePolicy,
    LFUServePolicy,
    LRUServePolicy,
    S3FIFOServePolicy,
    make_serve_policy,
)
from repro.serve.service import (
    CacheService,
    LatencyConfig,
    drive_requests,
    replay_requests,
    run_service,
)
from repro.serve.store import ObjectStore
from repro.serve.workloads import (
    WORKLOADS,
    Request,
    build_workload,
    object_size,
)

# --- workloads ----------------------------------------------------------------


def test_workloads_are_deterministic():
    for name in WORKLOADS:
        a = build_workload(name, 400, seed=9)
        b = build_workload(name, 400, seed=9)
        assert a == b, name
        assert len(a) == 400, name


def test_workloads_differ_across_seeds():
    for name in WORKLOADS:
        assert build_workload(name, 400, seed=1) != build_workload(
            name, 400, seed=2
        ), name


def test_object_size_is_a_pure_function_of_key():
    stream = build_workload("multitenant", 2000, seed=4)
    seen = {}
    for req in stream:
        assert req.size == object_size(req.key)
        assert seen.setdefault(req.key, req.size) == req.size
        assert req.size > 0


def test_zipf_scan_interleaves_one_shot_keys():
    stream = build_workload("zipf_scan", 3000, seed=5)
    scan_keys = [r.key for r in stream if (r.key >> 40) & 0xFF == 1]
    assert scan_keys, "no scan burst in 3000 requests"
    assert len(scan_keys) == len(set(scan_keys))  # scans never repeat


def test_multitenant_assigns_all_tenants():
    stream = build_workload("multitenant", 2000, seed=6, num_tenants=4)
    tenants = {r.tenant for r in stream}
    assert tenants == {0, 1, 2, 3}
    # tenant 0 owns the largest share
    counts = sorted(tenants, key=lambda t: -sum(r.tenant == t for r in stream))
    assert counts[0] == 0


def test_refresh_requests_are_marked():
    stream = build_workload("zipf", 2000, seed=7, refresh_fraction=0.2)
    assert any(r.is_refresh for r in stream)
    assert all(not r.is_refresh for r in build_workload(
        "zipf", 500, seed=7, refresh_fraction=0.0
    ))


def test_unknown_workload_errors():
    with pytest.raises(KeyError, match="unknown workload"):
        build_workload("nope", 10)


# --- object store -------------------------------------------------------------


def _store(policy=None, capacity=1 << 16, segments=4):
    return ObjectStore(capacity, segments, policy or LRUServePolicy())


def test_store_hit_after_admit():
    store = _store()
    req = Request(key=1, size=100)
    assert not store.lookup(req)
    assert store.admit(req)
    assert store.lookup(req)
    assert store.hits == 1 and store.admissions == 1


def test_store_respects_segment_byte_budget():
    store = _store(capacity=4096, segments=4)  # 1 KiB per segment
    for key in range(200):
        req = Request(key=key, size=300)
        store.lookup(req) or store.admit(req)
    for seg_bytes in store._segment_bytes:
        assert seg_bytes <= store.segment_capacity
    assert store.evictions > 0


def test_store_forces_bypass_of_oversized_objects():
    class NeverAsk(LRUServePolicy):
        def admit(self, req, seg_idx):  # pragma: no cover - must not run
            raise AssertionError("policy consulted for an unfittable object")

    store = _store(policy=NeverAsk(), capacity=4096, segments=4)
    assert not store.admit(Request(key=1, size=5000))
    assert store.forced_bypasses == 1


def test_store_rejects_bad_geometry():
    with pytest.raises(ValueError):
        ObjectStore(1 << 16, 3, LRUServePolicy())  # not a power of two


# --- policies -----------------------------------------------------------------


def _fill(store, keys_sizes):
    for key, size in keys_sizes:
        store.admit(Request(key=key, size=size))


def test_lru_evicts_least_recently_used():
    store = _store(policy=LRUServePolicy(), capacity=4, segments=1)
    # segment capacity 4 bytes; 1-byte objects
    _fill(store, [(k, 1) for k in range(4)])
    store.lookup(Request(key=0, size=1))  # 0 is now the most recent
    store.admit(Request(key=9, size=1))  # must evict key 1 (coldest)
    assert store.contains(0) and store.contains(9)
    assert not store.contains(1)


def test_lfu_evicts_least_frequent():
    store = _store(policy=LFUServePolicy(), capacity=4, segments=1)
    _fill(store, [(k, 1) for k in range(4)])
    for _ in range(3):
        for key in (0, 1, 2):
            store.lookup(Request(key=key, size=1))
    store.admit(Request(key=9, size=1))  # key 3 has freq 1 -> victim
    assert not store.contains(3)
    assert store.contains(0) and store.contains(9)


def test_gdsf_prefers_evicting_cold_over_hot():
    store = _store(policy=GDSFServePolicy(), capacity=4, segments=1)
    _fill(store, [(k, 1) for k in range(4)])
    for _ in range(4):
        for key in (0, 1, 2):
            store.lookup(Request(key=key, size=1))
    store.admit(Request(key=9, size=1))
    assert not store.contains(3)


def test_gdsf_unit_cost_prefers_small_objects():
    # two objects, same freq: unit cost makes the large one cheapest to evict
    store = _store(policy=GDSFServePolicy(cost="unit"), capacity=40, segments=1)
    _fill(store, [(1, 10), (2, 30)])
    store.admit(Request(key=3, size=20))  # must evict; 2 has lowest H
    assert store.contains(1) and store.contains(3)
    assert not store.contains(2)


def test_gdsf_rejects_unknown_cost():
    with pytest.raises(ValueError):
        GDSFServePolicy(cost="banana")


def test_s3fifo_filters_one_hit_wonders():
    store = _store(policy=S3FIFOServePolicy(), capacity=1000, segments=1)
    hot = [(k, 40) for k in range(10)]
    _fill(store, hot)
    for _ in range(3):
        for key, _size in hot:
            store.lookup(Request(key=key, size=40))
    # a flood of one-hit objects must not displace the re-referenced set
    for key in range(100, 180):
        store.admit(Request(key=key, size=40))
    survivors = sum(1 for key, _ in hot if store.contains(key))
    assert survivors >= 8


def test_s3fifo_ghost_readmits_to_main():
    policy = S3FIFOServePolicy()
    store = _store(policy=policy, capacity=200, segments=1)
    store.admit(Request(key=1, size=60))
    for key in range(2, 12):  # push key 1 out through the small queue
        store.admit(Request(key=key, size=60))
    assert not store.contains(1)
    store.admit(Request(key=1, size=60))  # ghost hit -> straight to main
    assert 1 in policy._main[0]


def test_make_serve_policy_registry():
    for name in ("lru", "lfu", "gdsf", "s3fifo", "chrome"):
        assert name in SERVE_POLICIES
        assert make_serve_policy(name).name == name
    with pytest.raises(KeyError, match="unknown serve policy"):
        make_serve_policy("nope")


# --- agent facade -------------------------------------------------------------


def test_feature_extractor_is_stable_and_bounded():
    fx = ServeFeatureExtractor()
    a = fx.extract(123, 4096, tenant=1, hit=False, is_refresh=False)
    # extract is called once per request, so the frequency feature is
    # deliberately stateful: a repeat of the same request advances the
    # per-key count while every other feature stays put
    b = fx.extract(123, 4096, tenant=1, hit=False, is_refresh=False)
    assert (a[0], a[1], a[3]) == (b[0], b[1], b[3])
    assert a[2] != b[2]
    assert a != fx.extract(123, 4096, tenant=1, hit=True, is_refresh=False)
    assert 0 <= a[0] < (1 << 17) and 0 <= a[1] < (1 << 16)
    # size feature depends only on the log2 bucket
    same_bucket = fx.extract(123, 4097, tenant=1, hit=False, is_refresh=False)
    assert a[1] == same_bucket[1]
    # region feature depends only on the key's 1024-key page (x tenant)
    same_region = fx.extract(124, 4096, tenant=1, hit=False, is_refresh=False)
    other_region = fx.extract(99_123, 4096, tenant=1, hit=False, is_refresh=False)
    assert a[3] == same_region[3]
    assert a[3] != other_region[3]


def test_frequency_class_exact_then_log2():
    fc = ServeFeatureExtractor.freq_class
    assert [fc(n) for n in range(1, 8)] == list(range(1, 8))
    assert fc(8) == fc(15) == 9          # one octave per bucket above 8
    assert fc(16) == fc(31) == 10
    assert fc(7) != fc(8)


def test_obstruction_monitor_flags_slow_tenants():
    monitor = BackendObstructionMonitor(baseline_ms=6.0, threshold=1.35)
    assert not monitor.is_obstructed(0)
    for _ in range(200):
        monitor.observe(0, 30.0)
        monitor.observe(1, 6.0)
    assert monitor.is_obstructed(0)
    assert not monitor.is_obstructed(1)


def test_chrome_serve_policy_trains_on_sampled_segments():
    requests = build_workload("zipf_scan", 4000, seed=3)
    policy = ChromeServePolicy(seed=4)
    metrics = run_service(requests, policy, 1 << 20, 64, num_clients=1)
    tel = metrics.telemetry
    assert tel["q_updates"] > 0
    assert tel["sampled_requests"] > 0
    assert tel["decisions"] == policy.agent.decisions


def test_chrome_serve_beats_lru_on_byte_hit_ratio():
    """The headline acceptance property at a test-sized scale (the
    committed benchmark pins it at full default scale)."""
    results = {}
    for name in ("lru", "chrome"):
        requests = build_workload("zipf_scan", 8000, seed=3)
        results[name] = run_service(
            requests,
            make_serve_policy(name),
            16 << 20,  # the default-scale store geometry
            128,
            num_clients=4,
            warmup_requests=1500,
        )
    assert results["chrome"].byte_hit_ratio > results["lru"].byte_hit_ratio


# --- service determinism ------------------------------------------------------


def _metrics_key(m):
    return (
        m.requests,
        m.hits,
        m.bytes_requested,
        m.bytes_hit,
        m.backend_fetches,
        m.evictions,
        repr(m.mean_latency_ms),
        repr(m.p99_latency_ms),
        tuple(sorted((t, tm.hits) for t, tm in m.per_tenant.items())),
    )


@pytest.mark.parametrize("policy_name", ["lru", "chrome"])
def test_num_clients_never_changes_results(policy_name):
    requests = build_workload("multitenant", 2500, seed=8)
    baseline = None
    for clients in (1, 2, 7):
        metrics = run_service(
            requests,
            make_serve_policy(
                policy_name, **({"seed": 5} if policy_name == "chrome" else {})
            ),
            1 << 20,
            32,
            num_clients=clients,
            warmup_requests=500,
        )
        key = _metrics_key(metrics)
        if baseline is None:
            baseline = key
        else:
            assert key == baseline, f"num_clients={clients} diverged"


def test_async_driver_matches_sync_replay():
    requests = build_workload("zipf", 1500, seed=10)
    stores = []
    for _ in range(2):
        store = ObjectStore(1 << 20, 32, LRUServePolicy())
        stores.append(store)
    sync_service = CacheService(stores[0])
    replay_requests(sync_service, requests)

    async_service = CacheService(stores[1])
    drive_requests(async_service, requests, num_clients=5)
    assert stores[0].hits == stores[1].hits
    assert stores[0]._segment_bytes == stores[1]._segment_bytes
    assert repr(sync_service.backend.bytes_fetched) == repr(
        async_service.backend.bytes_fetched
    )


# --- driver contract (a spy stands in for the service) -------------------------


class _SpyFailure(RuntimeError):
    pass


class _SpyService:
    """Records each ``process`` call's seq and asyncio task.

    ``hit(seq)`` decides the returned hit flag (a miss makes the
    driver yield); ``fail_at`` raises on that seq.
    """

    def __init__(self, hit=lambda seq: False, fail_at: int = -1) -> None:
        self.hit = hit
        self.fail_at = fail_at
        self.seqs = []
        self.tasks = []

    def process(self, seq, req) -> bool:
        self.seqs.append(seq)
        try:
            self.tasks.append(asyncio.current_task())
        except RuntimeError:  # serial replay: no running loop
            self.tasks.append(None)
        if seq == self.fail_at:
            raise _SpyFailure(seq)
        return self.hit(seq)


_N = 40


@pytest.mark.parametrize("clients", [1, 2, 8, 64, _N + 3])
def test_driver_processes_in_sequence_order(clients):
    requests = build_workload("zipf", _N, seed=2)
    spy = _SpyService(hit=lambda seq: seq % 3 == 0)
    drive_requests(spy, requests, clients)
    assert spy.seqs == list(range(_N))


@pytest.mark.parametrize("clients", [1, 8])
def test_driver_empty_stream_returns_cleanly(clients):
    spy = _SpyService()
    drive_requests(spy, [], clients)
    assert spy.seqs == []


def test_driver_clients_interleave_on_misses():
    spy = _SpyService(hit=lambda seq: seq % 2 == 0)
    drive_requests(spy, build_workload("zipf", _N, seed=2), 8)
    assert len(set(spy.tasks)) >= 2
    assert None not in spy.tasks


@pytest.mark.parametrize("clients", [1, 2, 8, 64])
@pytest.mark.parametrize("fail_at", [0, 5, _N - 1])
def test_driver_stops_at_the_failing_request(clients, fail_at):
    """A raise at seq k propagates and nothing after k is processed."""
    spy = _SpyService(fail_at=fail_at)
    with pytest.raises(_SpyFailure):
        drive_requests(spy, build_workload("zipf", _N, seed=2), clients)
    assert spy.seqs == list(range(fail_at + 1))


def test_warmup_requests_excluded_from_metrics():
    requests = build_workload("zipf", 1000, seed=12)
    full = run_service(requests, LRUServePolicy(), 1 << 20, 16, num_clients=1)
    warm = run_service(
        requests, LRUServePolicy(), 1 << 20, 16, num_clients=1,
        warmup_requests=400,
    )
    assert full.requests == 1000
    assert warm.requests == 600
    assert warm.object_hit_ratio >= full.object_hit_ratio  # warmed cache


def test_latency_model_penalizes_queueing():
    cfg = LatencyConfig()
    from repro.serve.service import Backend

    backend = Backend(cfg)
    first, out0 = backend.fetch(1024, now_ms=0.0)
    second, out1 = backend.fetch(1024, now_ms=0.0)
    assert out0 == 0 and out1 == 1
    assert second > first  # queue penalty
    later, out2 = backend.fetch(1024, now_ms=1e9)
    assert out2 == 0 and repr(later) == repr(first)


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    # Nearest-rank: value at 1-indexed rank ceil(f * n).
    assert percentile(values, 0.5) == 50.0
    assert percentile(values, 0.99) == 99.0
    assert percentile(values, 1.0) == 100.0
    assert percentile(values, 0.0) == 1.0
    assert percentile([], 0.99) == 0.0
    # p99 of a small sample must not collapse onto the max.
    assert percentile([1.0, 2.0], 0.5) == 1.0
    assert percentile([1.0] * 99 + [1000.0], 0.99) == 1.0


# --- percentile: randomized property test vs the brute-force definition -------

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    _HAVE_HYPOTHESIS = False


def _brute_force_nearest_rank(sorted_values, fraction):
    """The definition, written independently: smallest sample whose
    cumulative share of the distribution is >= ``fraction``."""
    n = len(sorted_values)
    for i, value in enumerate(sorted_values):
        if (i + 1) / n >= fraction:
            return value
    return sorted_values[-1]


if _HAVE_HYPOTHESIS:

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=0.0,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=400,
        ),
        fraction=st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from([0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0]),
        ),
    )
    def test_percentile_matches_brute_force(values, fraction):
        ordered = sorted(values)
        assert percentile(ordered, fraction) == _brute_force_nearest_rank(
            ordered, fraction
        )
