"""Federation of numpy-backend agents.

``federate_agents`` has one merge: a numpy agent, which has no
nested-list rows, joins the in-place row walk through a detached
snapshot that is loaded back afterwards.  These tests pin that path
byte-identical to the reference merge (:func:`merge_qtable_states`) on
genuinely trained, divergent tables, for all-numpy and mixed fleets,
plus the no-aliasing contract (each agent must own its array).
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.cluster.federate import federate_agents, merge_qtable_states
from repro.core.qtable_np import QTableNumpy
from repro.serve.config import ServiceConfig
from repro.serve.service import run_configured
from repro.serve.workloads import build_workload


def _trained_agents(seeds, backend="numpy"):
    requests = build_workload("zipf_scan", 1500, seed=4)
    agents = []
    for seed in seeds:
        config = ServiceConfig.from_params(
            capacity_bytes=1 << 20,
            num_segments=16,
            policy="chrome",
            policy_params=(("backend", backend),),
            num_clients=4,
            seed=seed,
            workload_name="zipf_scan",
        )
        policy = config.build_policy()
        run_configured(list(requests), config, policy=policy)
        agents.append(policy.agent)
    return agents


def test_numpy_merge_bit_identical_to_scalar_reference():
    agents = _trained_agents([1, 2, 3])
    assert all(isinstance(a.qtable, QTableNumpy) for a in agents)
    states = [a.qtable.state_dict() for a in agents]
    assert states[0] != states[1]  # the seeds really trained differently
    expected = merge_qtable_states(states, agents[0].qtable._quantum)
    counters = [(a.qtable.lookups, a.qtable.updates) for a in agents]
    merged = federate_agents(agents)
    assert merged == expected
    for agent, before in zip(agents, counters):
        assert agent.qtable.state_dict()["tables"] == expected["tables"]
        assert (agent.qtable.lookups, agent.qtable.updates) == before


def test_numpy_agents_own_their_tables_after_federation():
    agents = _trained_agents([5, 6])
    federate_agents(agents)
    a, b = (agent.qtable for agent in agents)
    assert a._ticks is not b._ticks
    assert np.array_equal(a._ticks, b._ticks)
    # views must target the post-merge array, not a stale one
    for f in range(a.num_features):
        assert a._views[f].base is a._ticks
    # one shard keeps training: the other must not see its updates
    before = b.state_dict()
    a.apply_delta(tuple(range(a.num_features)), 0, 1.0)
    assert a.state_dict()["tables"] != before["tables"]
    assert b.state_dict() == before


def test_single_agent_numpy_federation_is_identity():
    (agent,) = _trained_agents([7])
    before = agent.qtable.state_dict()
    merged = federate_agents([agent])
    assert merged["tables"] == before["tables"]
    assert agent.qtable.state_dict() == before


def test_mixed_backend_fleet_falls_back_to_generic_merge():
    scalar_agent = _trained_agents([8], backend="scalar")[0]
    numpy_agent = _trained_agents([9], backend="numpy")[0]
    agents = [scalar_agent, numpy_agent]
    states = [a.qtable.state_dict() for a in agents]
    expected = merge_qtable_states(states, scalar_agent.qtable._quantum)
    merged = federate_agents(agents)
    assert merged == expected
    assert scalar_agent.qtable.state_dict()["tables"] == expected["tables"]
    assert numpy_agent.qtable.state_dict()["tables"] == expected["tables"]


def test_merged_values_stay_on_grid_and_reload_cleanly():
    agents = _trained_agents([10, 11, 12])
    merged = federate_agents(agents)
    quantum = agents[0].qtable._quantum
    for feature in merged["tables"]:
        for subtable in feature:
            for row in subtable:
                for v in row:
                    assert v == round(v / quantum) * quantum
    # the merged snapshot must survive the numpy loader's grid checks
    agents[0].qtable.load_state_dict(merged)
