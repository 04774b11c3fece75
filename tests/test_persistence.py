"""Agent persistence: QTable state_dict and save/restore warm starts.

The contract under test: a snapshot written by ``save`` and read by
``restore`` reproduces the learned state *bit-identically* (Python
floats round-trip exactly through JSON), restores are geometry- and
kind-checked, and a restored agent continues deterministically — two
agents restored from the same snapshot and fed the same stream stay
bit-identical forever.
"""

import json
from dataclasses import replace

import pytest

from repro.core.chrome import ChromePolicy
from repro.core.config import MISS_ACTIONS, ChromeConfig
from repro.core.persistence import agent_state, load_agent_state
from repro.core.qtable import QTable
from repro.serve.agent import ServeAgent
from repro.serve.workloads import build_workload
from repro.sim.multicore import MultiCoreSystem, SystemConfig
from repro.traces.mixes import heterogeneous_mix

SCALE = 1 / 64


def _trained_qtable(seed: int = 0, updates: int = 400) -> QTable:
    import random

    config = ChromeConfig()
    table = QTable(2, config)
    rng = random.Random(seed)
    for _ in range(updates):
        state = (rng.randrange(1 << 17), rng.randrange(1 << 16))
        action = MISS_ACTIONS[rng.randrange(len(MISS_ACTIONS))]
        table.apply_delta(state, action, rng.uniform(-2.0, 2.0))
    return table


def _trained_llc_policy(config: ChromeConfig) -> ChromePolicy:
    policy = ChromePolicy(config)
    system = MultiCoreSystem(
        SystemConfig(num_cores=2, scale=SCALE), llc_policy=policy
    )
    traces = heterogeneous_mix(["mcf06", "libquantum06"], 900, seed=7, scale=SCALE)
    system.run(traces, max_accesses_per_core=900)
    return policy


def _drive_serve_agent(agent: ServeAgent, requests, hits_every: int = 3):
    """Feed a fixed request stream straight into the decision pipeline."""
    decisions = []
    for i, req in enumerate(requests):
        seg_idx = req.key % 64
        decisions.append(agent.decide(req, seg_idx, hit=(i % hits_every == 0)))
    return decisions


# --- QTable.state_dict round trip --------------------------------------------


def test_qtable_state_dict_roundtrip_bit_identical():
    table = _trained_qtable()
    clone = QTable(2, ChromeConfig())
    clone.load_state_dict(table.state_dict())
    assert clone.state_dict() == table.state_dict()
    # Spot-check q() agreement on fresh states too (hash paths intact).
    for state in [(0, 0), (123, 456), ((1 << 17) - 1, (1 << 16) - 1)]:
        for action in range(4):
            assert clone.q(state, action) == table.q(state, action)


def test_qtable_state_dict_json_safe():
    table = _trained_qtable(seed=3)
    via_json = json.loads(json.dumps(table.state_dict()))
    clone = QTable(2, ChromeConfig())
    clone.load_state_dict(via_json)
    assert clone.state_dict() == table.state_dict()


def test_qtable_load_rebuilds_row_caches():
    table = _trained_qtable(seed=1)
    clone = QTable(2, ChromeConfig())
    state = (42, 43)
    clone.q(state, 1)  # populate the memoized row cache pre-load
    clone.load_state_dict(table.state_dict())
    assert clone.q(state, 1) == table.q(state, 1)
    # Post-load updates must not leak back into the source table.
    clone.apply_delta(state, 1, 1.0)
    assert clone.q(state, 1) != table.q(state, 1)


def test_qtable_load_keeps_row_caches_live_and_unaliased():
    table = _trained_qtable(seed=2)
    clone = _trained_qtable(seed=5)  # populated caches, different values
    source = table.state_dict()
    pristine = json.loads(json.dumps(source))
    clone.load_state_dict(source)
    assert clone.state_dict() == table.state_dict()
    cached = 0
    for f, cache in enumerate(clone._row_caches):
        for value in cache:
            rows = clone._rows_for(f, value)
            for k, idx in enumerate(clone._row_indices(value)):
                assert rows[k] is clone._tables[f][k][idx]
                cached += 1
    assert cached
    # The clone owns its rows: updates move neither the source state
    # nor the table it was taken from.
    state = (next(iter(clone._row_caches[0])), 7)
    before = table.q(state, 1)
    clone.apply_delta(state, 1, 1.0)
    assert clone.q(state, 1) != before
    assert table.q(state, 1) == before
    assert source == pristine


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t[1][2].__setitem__(5, t[1][2][5][:3]),  # short row
        lambda t: t[1][2][-1].append(0.0),  # long row
        lambda t: t[0][3].pop(),  # missing row
        lambda t: t[1].append(t[1][0]),  # extra sub-table
        lambda t: t[1][2].__setitem__(7, None),  # not a row
    ],
    ids=["short-row", "long-row", "missing-row", "extra-subtable", "not-a-row"],
)
def test_qtable_load_rejects_malformed_tables_untouched(corrupt):
    table = _trained_qtable(seed=4)
    before = table.state_dict()
    state = _trained_qtable(seed=6).state_dict()
    corrupt(state["tables"])
    with pytest.raises(ValueError, match="geometry"):
        table.load_state_dict(state)
    assert table.state_dict() == before


def test_qtable_load_rejects_geometry_mismatch():
    table = _trained_qtable()
    other = QTable(3, ChromeConfig())
    with pytest.raises(ValueError, match="geometry"):
        other.load_state_dict(table.state_dict())
    small = QTable(2, replace(ChromeConfig(), num_subtables=2))
    with pytest.raises(ValueError, match="geometry"):
        small.load_state_dict(table.state_dict())


def test_qtable_load_rejects_unknown_version():
    table = QTable(2, ChromeConfig())
    state = table.state_dict()
    state["version"] = 99
    with pytest.raises(ValueError, match="version"):
        table.load_state_dict(state)


# --- LLC agent save/restore ---------------------------------------------------


def test_chrome_policy_save_restore_bit_identical(tmp_path):
    config = replace(ChromeConfig(), sampled_sets=8, eq_fifo_size=8)
    trained = _trained_llc_policy(config)
    assert trained.qtable.updates > 0  # the run actually trained
    path = tmp_path / "llc_agent.json"
    trained.save(path)

    fresh = ChromePolicy(config)
    fresh.restore(path)
    assert fresh.qtable.state_dict() == trained.qtable.state_dict()
    assert fresh._rng.getstate() == trained._rng.getstate()


def test_chrome_policy_restore_rejects_serve_snapshot(tmp_path):
    agent = ServeAgent(seed=1)
    path = tmp_path / "serve_agent.json"
    agent.save(path)
    with pytest.raises(ValueError, match="kind"):
        ChromePolicy(ChromeConfig()).restore(path)


def test_restore_rejects_config_mismatch():
    agent = ServeAgent(seed=1)
    state = agent_state(agent, kind="serve-agent")
    other = ServeAgent(replace(ChromeConfig(), alpha=0.999), seed=1)
    with pytest.raises(ValueError, match="config mismatch"):
        load_agent_state(other, state, kind="serve-agent")


# --- serve agent save/restore + deterministic continuation --------------------


def test_serve_agent_save_restore_bit_identical(tmp_path):
    requests = build_workload("zipf_scan", 1200, seed=11)
    agent = ServeAgent(seed=5)
    agent.attach(128)
    _drive_serve_agent(agent, requests)
    assert agent.qtable.updates > 0
    path = tmp_path / "serve_agent.json"
    agent.save(path)

    restored = ServeAgent(seed=999)  # different seed: state must come from disk
    restored.attach(128)
    restored.restore(path)
    assert restored.qtable.state_dict() == agent.qtable.state_dict()
    assert restored._rng.getstate() == agent._rng.getstate()


def test_serve_agent_restored_continuation_is_deterministic(tmp_path):
    """Restoring a snapshot twice and replaying the same stream gives
    bit-identical decisions and learned state (the warm-start
    guarantee CI smokes end-to-end)."""
    warm = build_workload("zipf_scan", 800, seed=21)
    cont = build_workload("zipf_scan", 800, seed=22)

    agent = ServeAgent(seed=13)
    agent.attach(128)
    _drive_serve_agent(agent, warm)
    path = tmp_path / "warm.json"
    agent.save(path)

    runs = []
    for _ in range(2):
        resumed = ServeAgent(seed=13)
        resumed.attach(128)
        resumed.restore(path)
        decisions = _drive_serve_agent(resumed, cont)
        runs.append((decisions, resumed.qtable.state_dict()))
    assert runs[0] == runs[1]
    # And the continuation genuinely trained beyond the snapshot.
    assert runs[0][1]["updates"] > agent.qtable.updates


def test_save_is_atomic_no_tmp_left_behind(tmp_path):
    agent = ServeAgent(seed=2)
    path = tmp_path / "snap.json"
    agent.save(path)
    assert path.exists()
    assert list(tmp_path.glob("*.tmp")) == []


# --- fixed-point grid validation on load --------------------------------------


def test_load_rejects_off_grid_qvalues():
    """A snapshot whose Q-values do not sit on the live fixed-point
    lattice must be refused with a clear error, not loaded silently
    (the scalar table would accept and then drift off-grid forever)."""
    agent = ServeAgent(seed=1)
    state = agent_state(agent, kind="serve-agent")
    state["qtable"]["tables"][0][0][0][0] = 0.1  # not a multiple of 2^-8
    fresh = ServeAgent(seed=1)
    with pytest.raises(ValueError, match="off the live fixed-point grid"):
        load_agent_state(fresh, state, kind="serve-agent")


def test_load_rejects_qvalues_beyond_clamp():
    agent = ServeAgent(seed=1)
    state = agent_state(agent, kind="serve-agent")
    config = agent.config
    quantum = 1.0 / (1 << config.q_fixed_point_fraction_bits)
    limit = (1 << (config.q_value_bits - 1)) * quantum
    # On-grid but one quantum past the clamp ceiling.
    state["qtable"]["tables"][0][0][0][0] = limit
    fresh = ServeAgent(seed=1)
    with pytest.raises(ValueError, match="exceeds the live clamp"):
        load_agent_state(fresh, state, kind="serve-agent")


def test_load_accepts_on_grid_snapshot_unchanged():
    agent = ServeAgent(seed=3)
    agent.attach(128)
    _drive_serve_agent(agent, build_workload("zipf_scan", 600, seed=9))
    state = agent_state(agent, kind="serve-agent")
    fresh = ServeAgent(seed=3)
    fresh.attach(128)
    load_agent_state(fresh, state, kind="serve-agent")
    assert fresh.qtable.state_dict() == agent.qtable.state_dict()
