"""Simulated and virtual outputs are a pure function of the seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.ledger import Ledger
from perfbench.workloads import WORKLOADS
from repro.experiments.runner import ExperimentScale

ROOT = Path(__file__).resolve().parents[2]

SHORT = {
    "sim_hetero4": (1500, 500),
    "serve_zipf": (3000, 1000),
    "fleet_chaos": (3000, 1000),
}


def _scale(workload):
    accesses, warmup = SHORT[workload]
    return ExperimentScale(accesses_per_core=accesses, warmup_per_core=warmup)


def _digest_in_subprocess(workload, seed, hash_seed):
    accesses, warmup = SHORT[workload]
    code = (
        "from perfbench.workloads import WORKLOADS\n"
        "from repro.experiments.runner import ExperimentScale\n"
        f"scale = ExperimentScale(accesses_per_core={accesses}, "
        f"warmup_per_core={warmup})\n"
        f"outcome = WORKLOADS[{workload!r}]({seed}, scale).run()\n"
        "assert not outcome.failures, outcome.failures\n"
        "print(outcome.digest)\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return out.stdout.strip()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_digest_is_stable_across_hash_seeds_and_moves_with_the_seed(workload):
    a = _digest_in_subprocess(workload, seed=3, hash_seed=0)
    b = _digest_in_subprocess(workload, seed=3, hash_seed=12345)
    c = _digest_in_subprocess(workload, seed=4, hash_seed=0)
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_outputs_equal_untraced_and_the_ledger_balances(workload):
    scale = _scale(workload)
    untraced = WORKLOADS[workload](5, scale).run()
    ledger = Ledger(per_call_cost_s=1e-7)
    with ledger.installed():
        traced = WORKLOADS[workload](5, scale, span=ledger.span).run()
    report = ledger.report()
    assert traced.digest == untraced.digest
    assert traced.failures == untraced.failures == []
    assert abs(report.accounted_s() - report.wall_s) < 1e-6
    # The wrapped layers saw the work and the wrappers are gone again.
    assert report.calls("env.driver") > 0
    again = Ledger()
    with again.installed():
        pass
    assert sum(stats.calls for stats in again.layers.values()) == 0
