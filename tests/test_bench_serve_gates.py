"""The serve-side bench acceptance gates can fail.

A gate that passes whatever the run measures nothing.  Each bench's
``evaluate_gates`` is a pure function of its result records, so the
known-bad case is built by copying the losing side's records into the
winning slot:

* ``bench_serve`` — LRU's records in CHROME's slot fail the zipf_scan
  gate and every atlas gate;
* ``bench_serve_faults`` — the naive records in the resilient slot fail
  every policy's degradation gate;
* ``bench_ops`` — the unguarded run in the guarded slot fails every
  guardrail gate.

The records come from the committed results files, so no benchmark is
rerun here.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _committed(module, key: str) -> dict:
    return json.loads(module.RESULTS_PATH.read_text())[key]


@pytest.fixture(scope="module")
def bench_serve():
    return _load("bench_serve")


@pytest.fixture(scope="module")
def workloads(bench_serve) -> dict:
    return _committed(bench_serve, "workloads")


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


# --- bench_serve_faults -------------------------------------------------------


@pytest.fixture(scope="module")
def bench_serve_faults():
    return _load("bench_serve_faults")


def test_committed_fault_results_pass_and_match_their_verdict(bench_serve_faults):
    policies = _committed(bench_serve_faults, "policies")
    gates = bench_serve_faults.evaluate_gates(policies)
    assert gates["passed"]
    assert gates == _committed(bench_serve_faults, "acceptance")


def test_naive_in_the_resilient_slot_fails_every_policy(bench_serve_faults):
    impostor = copy.deepcopy(_committed(bench_serve_faults, "policies"))
    for table in impostor.values():
        table["resilient"] = copy.deepcopy(table["naive"])
    gates = bench_serve_faults.evaluate_gates(impostor)
    assert not gates["passed"]
    for policy, verdict in gates["per_policy"].items():
        assert not verdict["error_rate_improved"], policy
        assert not verdict["p99_improved"], policy


# --- bench_ops ----------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_ops():
    return _load("bench_ops")


def test_committed_ops_results_pass_and_match_their_verdict(bench_ops):
    gates = bench_ops.evaluate_gates(_committed(bench_ops, "runs"))
    assert gates["passed"]
    assert gates == _committed(bench_ops, "acceptance")


def test_unguarded_in_the_guarded_slot_fails_every_gate(bench_ops):
    runs = copy.deepcopy(_committed(bench_ops, "runs"))
    runs["guarded_degrade"] = copy.deepcopy(runs["unguarded_degrade"])
    gates = bench_ops.evaluate_gates(runs)
    assert not gates["passed"]
    assert not gates["gate_byte_hit"]
    assert not gates["gate_p99"]
    assert not gates["guardrail_reacted"]
