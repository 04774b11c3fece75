"""Unit + property tests for :mod:`repro.cluster`: the consistent-hash
ring, hot-key detection, Q-table federation, fleet determinism under
shard kills, and the federation-beats-isolated seeded smoke."""

import itertools
import json
import random
from bisect import bisect_left
from dataclasses import replace

import pytest

from repro.cluster import (
    ClusterService,
    HashRing,
    HotKeyDetector,
    merge_qtable_states,
)
from repro.cluster.federate import federate_agents
from repro.core.config import ChromeConfig
from repro.env import env_job
from repro.serve.agent import ServeAgent
from repro.serve.config import ServiceConfig
from repro.serve.faults import FaultConfig
from repro.serve.service import run_configured
from repro.serve.workloads import build_workload
from repro.sim.address import mix_hash

# --- ring ---------------------------------------------------------------------


def test_ring_is_seeded_and_deterministic():
    a = HashRing(4, replication=2, vnodes=32, seed=9)
    b = HashRing(4, replication=2, vnodes=32, seed=9)
    assert a._points == b._points
    keys = range(0, 4000, 7)
    assert [a.preference(k) for k in keys] == [b.preference(k) for k in keys]
    c = HashRing(4, replication=2, vnodes=32, seed=10)
    assert any(a.preference(k) != c.preference(k) for k in keys)


def test_ring_preference_returns_distinct_live_shards():
    ring = HashRing(5, replication=3, vnodes=16, seed=1)
    for key in range(500):
        pref = ring.preference(key)
        assert len(pref) == 3
        assert len(set(pref)) == 3
        assert pref[0] == ring.primary(key)


def test_ring_replication_clamps_to_shard_count():
    ring = HashRing(2, replication=8, vnodes=8, seed=0)
    assert ring.replication == 2
    assert len(ring.preference(123)) == 2


def test_ring_dead_shard_skips_only_affected_keys():
    ring = HashRing(4, replication=2, vnodes=64, seed=3)
    dead = 2
    live = [s != dead for s in range(4)]
    moved = unmoved = 0
    for key in range(3000):
        healthy = ring.preference(key)
        degraded = ring.preference(key, live)
        assert dead not in degraded
        if healthy[0] == dead:
            # its old first replica becomes the new primary
            assert degraded[0] == healthy[1]
            moved += 1
        else:
            # consistent hashing: keys not owned by the dead shard keep
            # their primary
            assert degraded[0] == healthy[0]
            unmoved += 1
    assert moved > 0 and unmoved > 0
    # roughly 1/4 of keys lived on the dead shard
    assert moved < unmoved


def test_ring_survives_all_but_one_dead():
    ring = HashRing(4, replication=2, vnodes=16, seed=5)
    live = [False, False, True, False]
    for key in range(200):
        assert ring.preference(key, live) == [2]


def test_ring_describe_topology():
    ring = HashRing(3, replication=2, vnodes=16, seed=7)
    desc = ring.describe()
    assert desc["num_shards"] == 3
    assert desc["points"] == 3 * 16
    assert desc["vnodes_per_shard"] == [16, 16, 16]


def test_ring_validates_arguments():
    with pytest.raises(ValueError):
        HashRing(0)
    with pytest.raises(ValueError):
        HashRing(2, replication=0)
    with pytest.raises(ValueError):
        HashRing(2, vnodes=0)


def _walk(ring, key, live):
    """The reference router: hash the key, bisect, walk the points."""
    points = ring._points
    n = len(points)
    idx = bisect_left([p for p, _ in points], mix_hash(key))
    chosen = []
    for step in range(n):
        shard = points[(idx + step) % n][1]
        if shard in chosen or (live is not None and not live[shard]):
            continue
        chosen.append(shard)
        if len(chosen) == ring.replication:
            break
    return chosen, points[idx % n][1]


@pytest.mark.parametrize("shards,replication", [(4, 2), (6, 3)])
def test_ring_route_matches_the_walk_under_every_live_mask(shards, replication):
    ring = HashRing(shards, replication=replication, vnodes=32, seed=shards)
    keys = random.Random(shards).sample(range(1 << 40), 2000)
    masks = [None] + list(itertools.product((True, False), repeat=shards))
    for live in masks:
        for key in keys:
            pref, home = _walk(ring, key, live)
            assert ring.route(key, live) == (tuple(pref), home)
            assert ring.preference(key, live) == pref
            assert ring.primary(key) == home


def test_ring_all_dead_mask_routes_nowhere():
    ring = HashRing(4, replication=2, vnodes=16, seed=2)
    dead = (False,) * 4
    for key in range(300):
        pref, home = ring.route(key, dead)
        assert pref == () and ring.preference(key, list(dead)) == []
        assert home == ring.primary(key)


def test_ring_alternating_masks_keep_their_own_tables():
    ring = HashRing(6, replication=3, vnodes=16, seed=4)
    masks = [
        (True,) * 6,
        (True, False, True, True, False, True),
        (False,) * 6,
        (False, False, True, False, False, False),
        None,
    ]
    mutable = [True] * 6
    routed = set()
    for i in range(3000):
        live = masks[i % len(masks)]
        key = i * 7919
        pref, home = _walk(ring, key, live)
        assert ring.route(key, live) == (tuple(pref), home)
        # A list mask edited in place between two calls is read afresh.
        assert ring.preference(key, mutable) == _walk(ring, key, mutable)[0]
        routed.add(tuple(mutable))
        mutable[i % 6] = not mutable[i % 6]
        assert ring.preference(key, mutable) == _walk(ring, key, mutable)[0]
        routed.update((live, tuple(mutable)))
    # tables exist only for the masks actually routed
    assert set(ring._arcs) == routed


# --- hot keys -----------------------------------------------------------------


def test_hotkey_detector_promotes_windowed_topk():
    det = HotKeyDetector(window=100, top_k=2, min_count=3)
    for _ in range(5):
        det.observe(11)
    for _ in range(4):
        det.observe(22)
    for _ in range(3):
        det.observe(33)
    det.observe(44)  # below min_count
    assert det.roll() == (11, 22)
    assert det.is_hot(11) and det.is_hot(22)
    assert not det.is_hot(33) and not det.is_hot(44)
    assert det.windows == 1 and det.promotions == 2
    # counts reset: an empty next window demotes everything
    assert det.roll() == ()
    assert det.hot_keys == ()


def test_hotkey_tiebreak_is_deterministic():
    det = HotKeyDetector(window=10, top_k=2, min_count=1)
    for key in (7, 5, 9):  # equal counts -> smallest keys win
        det.observe(key)
    assert det.roll() == (5, 7)


def test_hotkey_eviction_tap_counts_only_hot_keys():
    class Obj:
        def __init__(self, key):
            self.key = key

    det = HotKeyDetector(window=10, top_k=1, min_count=1)
    det.observe(42)
    det.roll()
    det.on_evict(Obj(42))
    det.on_evict(Obj(43))
    assert det.hot_evictions == 1


# --- evict-listener subscriber list (serve satellite) -------------------------


def test_object_store_supports_multiple_evict_listeners():
    config = ServiceConfig.from_params(
        capacity_bytes=1 << 16, num_segments=4, policy="lru", seed=0
    )
    store = config.build_store()
    seen_a, seen_b = [], []
    store.add_evict_listener(lambda obj: seen_a.append(obj.key))
    store.add_evict_listener(lambda obj: seen_b.append(obj.key))
    for req in build_workload("zipf_scan", 800, seed=2):
        if not store.lookup(req):
            store.admit(req)
    assert seen_a and seen_a == seen_b


# --- federation ---------------------------------------------------------------


def _trained_states(seeds, requests=None):
    """Q-table snapshots from independently trained scalar-backend
    serve agents (``tests/test_federate_numpy.py`` covers numpy)."""
    requests = requests or build_workload("zipf_scan", 1500, seed=4)
    out = []
    for seed in seeds:
        config = ServiceConfig.from_params(
            capacity_bytes=1 << 20,
            num_segments=16,
            policy="chrome",
            num_clients=4,
            seed=seed,
            workload_name="zipf_scan",
            policy_params=(("backend", "scalar"),),
        )
        policy = config.build_policy()
        run_configured(list(requests), config, policy=policy)
        out.append((policy.agent, policy.agent.qtable.state_dict()))
    return out


def test_merge_is_deterministic_and_order_independent():
    (a, sa), (b, sb), (c, sc) = _trained_states([1, 2, 3])
    assert sa != sb  # different seeds really trained differently
    quantum = a.qtable._quantum
    merged = merge_qtable_states([sa, sb, sc], quantum)
    assert merged == merge_qtable_states([sa, sb, sc], quantum)
    assert merged == merge_qtable_states([sc, sb, sa], quantum)
    assert merged == merge_qtable_states([sb, sc, sa], quantum)
    # every merged value sits on the fixed-point grid
    for feature in merged["tables"]:
        for subtable in feature:
            for row in subtable:
                for v in row:
                    assert v == round(v / quantum) * quantum


def test_merge_of_one_is_identity():
    (a, sa), = _trained_states([5])
    merged = merge_qtable_states([sa], a.qtable._quantum)
    assert merged["tables"] == sa["tables"]


def test_merge_rejects_empty_and_mismatched_geometry():
    (a, sa), = _trained_states([6])
    with pytest.raises(ValueError):
        merge_qtable_states([], a.qtable._quantum)
    bad = dict(sa)
    bad["num_actions"] = sa["num_actions"] + 1
    with pytest.raises(ValueError, match="geometry"):
        merge_qtable_states([sa, bad], a.qtable._quantum)


def test_save_merge_restore_round_trips_bit_identically(tmp_path):
    (a, sa), (b, sb) = _trained_states([7, 8])
    quantum = a.qtable._quantum
    merged = merge_qtable_states([sa, sb], quantum)
    # merged tables survive JSON serialization bit-for-bit (grid values
    # are exactly representable)
    assert json.loads(json.dumps(merged)) == merged
    # load -> save -> restore through the persistence layer
    a.qtable.load_state_dict(merged)
    path = tmp_path / "merged-agent.json"
    a.save(path)
    b.restore(path)
    assert b.qtable.state_dict()["tables"] == merged["tables"]
    # merging already-merged tables is a fixed point
    again = merge_qtable_states(
        [a.qtable.state_dict(), b.qtable.state_dict()], quantum
    )
    assert again["tables"] == merged["tables"]


def test_federate_agents_syncs_tables_and_keeps_local_counters():
    (a, _), (b, _) = _trained_states([9, 10])
    lookups = (a.qtable.lookups, b.qtable.lookups)
    merged = federate_agents([a, b])
    assert a.qtable.state_dict()["tables"] == merged["tables"]
    assert b.qtable.state_dict()["tables"] == merged["tables"]
    assert (a.qtable.lookups, b.qtable.lookups) == lookups
    with pytest.raises(ValueError):
        federate_agents([])


def _assert_row_caches_live(qtable):
    """Every memoized row reference is still the table's live row."""
    cached = 0
    for f, cache in enumerate(qtable._row_caches):
        for value in cache:
            rows = qtable._rows_for(f, value)
            for k, idx in enumerate(qtable._row_indices(value)):
                assert rows[k] is qtable._tables[f][k][idx]
                cached += 1
    assert cached  # the trained agents really populated the caches


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_in_place_federation_matches_snapshot_merge(order):
    trained = _trained_states([21, 22, 23])
    agents = [agent for agent, _ in trained]
    states = [state for _, state in trained]
    if order == "reversed":
        agents.reverse()
    expected = merge_qtable_states(states, agents[0].qtable._quantum)
    counters = [(a.qtable.lookups, a.qtable.updates) for a in agents]
    merged = federate_agents(agents)
    assert merged == expected
    for agent, before in zip(agents, counters):
        assert agent.qtable.state_dict()["tables"] == expected["tables"]
        assert (agent.qtable.lookups, agent.qtable.updates) == before
        _assert_row_caches_live(agent.qtable)


def test_federated_agents_and_snapshot_do_not_share_rows():
    (a, _), (b, _) = _trained_states([24, 25])
    merged = federate_agents([a, b])
    snapshot = json.loads(json.dumps(merged))
    value = next(iter(a.qtable._row_caches[0]))  # a cached, trained row
    state = (value,) + (0,) * (a.qtable.num_features - 1)
    before = b.qtable.q(state, 1)
    a.qtable.apply_delta(state, 1, 1.0)
    assert a.qtable.q(state, 1) != before
    assert b.qtable.q(state, 1) == before
    assert b.qtable.state_dict()["tables"] == snapshot["tables"]
    assert merged == snapshot


def test_federation_of_settled_tables_is_a_fixed_point():
    (a, _), (b, _) = _trained_states([26, 27])
    first = federate_agents([a, b])
    again = federate_agents([a, b])
    assert again["tables"] == first["tables"]
    _assert_row_caches_live(a.qtable)


def test_federation_rejects_mismatched_geometry_untouched():
    (a, sa), = _trained_states([28])
    small = ServeAgent(replace(ChromeConfig(), subtable_entries=1024), seed=28)
    assert small.qtable.rows != a.qtable.rows
    with pytest.raises(ValueError, match="geometry"):
        federate_agents([a, small])
    assert a.qtable.state_dict() == sa


# --- cluster determinism ------------------------------------------------------

_KILL_FAULTS = (
    ("seed", 3),
    ("outage_every_ms", 800.0),
    ("outage_duration_ms", 200.0),
)


def _fleet_job(**overrides):
    spec = dict(
        workload="zipf_scan",
        policy="chrome",
        num_requests=1200,
        warmup_requests=300,
        capacity_bytes=4 << 20,
        num_segments=32,
        num_shards=4,
        replication=2,
        num_clients=8,
        seed=13,
        federate_every=400,
        hotkey_window=256,
        kill_shard=1,
        kill_fault_params=_KILL_FAULTS,
    )
    spec.update(overrides)
    return env_job("cluster", **spec)


def test_cluster_metrics_identical_at_any_client_count():
    base = _fleet_job().execute()
    assert _fleet_job(num_clients=1).execute() == base
    assert _fleet_job(num_clients=64).execute() == base


def test_cluster_shard_kill_heals_and_routes_around():
    metrics = _fleet_job().execute()
    assert metrics.ring_changes == 2  # shard died, then came back
    assert metrics.reroutes > 0
    assert metrics.unroutable == 0  # R=2 absorbed the single kill
    # every request (warmup included) landed on exactly one shard
    assert sum(metrics.routed) == 1200 + 300
    assert metrics.federations > 0
    healthy = _fleet_job(kill_shard=-1, kill_fault_params=()).execute()
    assert healthy.ring_changes == 0
    assert healthy.reroutes == 0


def test_cluster_rejects_a_kill_schedule_for_a_missing_shard():
    config = ServiceConfig.from_params(
        capacity_bytes=4 << 20, num_segments=32, policy="lru", seed=0
    )
    kill = FaultConfig(**dict(_KILL_FAULTS))
    for shard in (-1, 4, 9):
        with pytest.raises(ValueError, match="kill_shard"):
            ClusterService(config, 4, kill_shard=shard, kill_faults=kill)
    with pytest.raises(ValueError, match="kill_shard"):
        _fleet_job(kill_shard=-1).execute()
    # no kill schedule: the shard index is not consulted
    ClusterService(config, 4, kill_shard=-1, kill_faults=None)


def test_cluster_fleet_aggregates_exactly():
    metrics = _fleet_job().execute()
    fleet = metrics.fleet
    assert fleet.requests == sum(m.requests for m in metrics.per_shard)
    assert fleet.hits == sum(m.hits for m in metrics.per_shard)
    assert fleet.bytes_hit == sum(m.bytes_hit for m in metrics.per_shard)
    assert fleet.evictions == sum(m.evictions for m in metrics.per_shard)


def test_cluster_rejects_capacity_below_segments():
    config = ServiceConfig.from_params(
        capacity_bytes=64, num_segments=32, policy="lru", seed=0
    )
    with pytest.raises(ValueError):
        ClusterService(config, num_shards=4)


# --- federation-beats-isolated (seeded smoke) ---------------------------------


def test_federated_fleet_beats_best_isolated_shard():
    """The bench gate's property at test scale: a federated 4-shard
    fleet reaches >= the byte-hit ratio of the best *isolated* shard (a
    single shard-sized cache serving the full stream alone)."""
    seed, reqs, warm, cap = 11, 8000, 1600, 8 << 20
    fed = env_job(
        "cluster",
        workload="zipf_scan",
        policy="chrome",
        num_requests=reqs,
        warmup_requests=warm,
        capacity_bytes=cap,
        num_segments=64,
        num_shards=4,
        replication=2,
        num_clients=8,
        seed=seed,
        federate_every=reqs // 8,
        hotkey_window=512,
    ).execute()
    requests = build_workload("zipf_scan", reqs + warm, seed=seed)
    base = ServiceConfig.from_params(
        capacity_bytes=cap // 4,
        num_segments=64,
        policy="chrome",
        num_clients=8,
        warmup_requests=warm,
        seed=seed,
        workload_name="zipf_scan",
    )
    isolated = [
        run_configured(list(requests), base.for_shard(shard)).byte_hit_ratio
        for shard in range(4)
    ]
    assert fed.fleet.byte_hit_ratio >= max(isolated)
