"""Tests for the beyond-the-paper ablation experiments."""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    Engine,
    ExperimentScale,
    available_experiments,
    get_plan,
    run_experiment,
)
from repro.experiments.ablations import (
    ABLATIONS,
    BypassFirstChromePolicy,
    NoBypassChromePolicy,
)
from repro.core.config import ACTION_BYPASS
from repro.sim.access import DEMAND, AccessInfo
from repro.sim.cache import Cache

TINY = ExperimentScale(
    machine_scale=1 / 64,
    accesses_per_core=300,
    warmup_per_core=60,
    workload_limit=2,
    hetero_mixes=2,
)

#: every ablation's rows at two small scales, captured from the
#: inline-simulation implementation the plans replaced
GOLDEN_PATH = Path(__file__).parent / "golden" / "ablations.json"


@pytest.fixture(scope="module")
def engine():
    return Engine(workers=1)


def _info(block):
    return AccessInfo(pc=0x400, address=block << 6, block_addr=block, core=0, type=DEMAND)


def test_no_bypass_variant_never_bypasses():
    policy = NoBypassChromePolicy()
    cache = Cache("llc", 64 * 2 * 4, 2, latency=1.0, policy=policy)
    for i in range(64):
        assert cache.decide_bypass(_info(i)) is False
    assert policy.bypass_decisions == 0


def test_bypass_first_variant_prefers_bypass_cold():
    policy = BypassFirstChromePolicy()
    assert policy._miss_actions[0] == ACTION_BYPASS
    cache = Cache("llc", 64 * 2 * 4, 2, latency=1.0, policy=policy)
    bypasses = sum(cache.decide_bypass(_info(i)) for i in range(32))
    assert bypasses > 16  # cold states choose bypass


def test_ablation_registry_reachable_via_run_experiment(engine):
    result = run_experiment("abl_tiebreak", TINY, engine)
    assert result.experiment_id == "abl_tiebreak"
    assert len(result.rows) == 2


def test_abl_sampling_sweeps_densities(engine):
    result = engine.run_plan(get_plan("abl_sampling")(TINY))
    densities = result.column("sampled_sets")
    assert densities == sorted(densities)
    assert 64 in densities


def test_extended_baselines_structure(engine):
    result = engine.run_plan(get_plan("extended_baselines")(TINY))
    assert set(result.column("scheme")) == {"random", "srrip", "drrip", "ship++", "chrome"}


def test_all_ablations_registered():
    for name, plan in ABLATIONS.items():
        assert name in available_experiments()
        assert get_plan(name) is plan


@pytest.mark.parametrize("scale_name", ["tiny", "short"])
def test_ablation_tables_match_pinned_rows(scale_name):
    pinned = json.loads(GOLDEN_PATH.read_text())[scale_name]
    scale = ExperimentScale(**pinned["scale"])
    engine = Engine(workers=1)
    for experiment_id, rows in pinned["tables"].items():
        got = run_experiment(experiment_id, scale, engine).rows
        # JSON round trip: tuples become lists, floats keep every digit
        assert json.loads(json.dumps(got)) == rows, experiment_id
