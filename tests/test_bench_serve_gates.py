"""The ``bench_serve`` acceptance gates can fail.

A gate that passes whatever the policy measures nothing: with LRU's
records standing in for CHROME's, the zipf_scan gate and every atlas
gate must fail.  The records come from the committed results file, so
no benchmark is rerun here.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench_serve():
    spec = importlib.util.spec_from_file_location(
        "bench_serve", BENCHMARKS / "bench_serve.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads(bench_serve) -> dict:
    return json.loads(bench_serve.RESULTS_PATH.read_text())["workloads"]


def test_committed_results_pass_every_gate(bench_serve, workloads):
    gates = bench_serve.evaluate_gates(workloads)
    assert gates["acceptance"]["passed"]
    assert set(gates["atlas_acceptance"]) == set(bench_serve.BEST_BASELINE_GATED)
    assert all(g["passed"] for g in gates["atlas_acceptance"].values())


def test_lru_in_the_chrome_slot_fails_every_gate(bench_serve, workloads):
    impostor = copy.deepcopy(workloads)
    for table in impostor.values():
        table["chrome"] = copy.deepcopy(table["lru"])
    gates = bench_serve.evaluate_gates(impostor)
    assert not gates["acceptance"]["passed"]
    for workload, gate in gates["atlas_acceptance"].items():
        assert not gate["passed"], workload


def test_gates_do_not_mutate_their_input(bench_serve, workloads):
    before = copy.deepcopy(workloads)
    bench_serve.evaluate_gates(workloads)
    assert workloads == before
