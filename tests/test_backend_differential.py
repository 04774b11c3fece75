"""Backend differential suite: numpy must reproduce every committed golden.

The scalar backend is the golden reference; the numpy backend
(DESIGN.md §9) is a pure throughput knob.  This module flips
``REPRO_BACKEND=numpy`` and recomputes *all five* golden families from
:mod:`tests.test_golden_determinism` — sim determinism, serve, chaos
faults, the sharded cluster and the ops control loop — and demands
byte-identity with the
committed golden files.  It also asserts the numpy backend actually
engaged (a silent fallback to scalar would make the comparison
vacuous), and pins down the backend-selection plumbing itself.
"""

from __future__ import annotations

import json

import pytest

from repro.core.backend import VALID_BACKENDS, make_qtable, resolve_backend
from repro.core.config import ChromeConfig
from repro.core.qtable import QTable
from repro.core.qtable_np import QTableNumpy
from tests.test_golden_determinism import (
    CLUSTER_GOLDEN_PATH,
    GOLDEN_PATH,
    OPS_GOLDEN_PATH,
    SERVE_FAULTS_GOLDEN_PATH,
    SERVE_GOLDEN_PATH,
    compute_cluster_golden,
    compute_golden,
    compute_ops_golden,
    compute_serve_faults_golden,
    compute_serve_golden,
)


@pytest.fixture()
def numpy_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    # Guard against a silent fallback: under the env var every
    # construction site must actually produce the numpy table.
    assert isinstance(make_qtable(2, ChromeConfig()), QTableNumpy)


def _golden(path) -> dict:
    assert path.exists(), f"missing golden file {path}"
    return json.loads(path.read_text())


# --- the four golden families under the numpy backend --------------------------


def test_sim_goldens_bit_identical_under_numpy(numpy_backend):
    assert compute_golden() == _golden(GOLDEN_PATH)


def test_serve_goldens_bit_identical_under_numpy(numpy_backend):
    assert compute_serve_golden() == _golden(SERVE_GOLDEN_PATH)


def test_serve_faults_goldens_bit_identical_under_numpy(numpy_backend):
    assert compute_serve_faults_golden() == _golden(SERVE_FAULTS_GOLDEN_PATH)


def test_cluster_goldens_bit_identical_under_numpy(numpy_backend):
    assert compute_cluster_golden() == _golden(CLUSTER_GOLDEN_PATH)


def test_ops_goldens_bit_identical_under_numpy(numpy_backend):
    # Also exercises numpy agents in federation's detach/reload path
    # (the cluster case federates every 500 requests) and the numpy
    # loader's grid checks on rollback restores.
    assert compute_ops_golden() == _golden(OPS_GOLDEN_PATH)


# --- backend selection plumbing ------------------------------------------------


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None) == "scalar"  # default
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert resolve_backend(None) == "numpy"  # env
    assert resolve_backend("scalar") == "scalar"  # explicit beats env


def test_resolve_backend_rejects_unknown(monkeypatch):
    with pytest.raises(ValueError, match="backend"):
        resolve_backend("fortran")
    monkeypatch.setenv("REPRO_BACKEND", "fortran")
    with pytest.raises(ValueError, match="REPRO_BACKEND"):
        resolve_backend(None)
    assert "scalar" in VALID_BACKENDS and "numpy" in VALID_BACKENDS


def test_make_qtable_honours_config_field(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    from dataclasses import replace

    assert isinstance(make_qtable(2, ChromeConfig()), QTable)
    config = replace(ChromeConfig(), backend="numpy")
    assert isinstance(make_qtable(2, config), QTableNumpy)
    # explicit config field beats the env var
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    config = replace(ChromeConfig(), backend="scalar")
    assert isinstance(make_qtable(2, config), QTable)


def test_serve_policy_backend_param(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    from repro.serve.policies import make_serve_policy

    policy = make_serve_policy("chrome", seed=1, backend="numpy")
    assert isinstance(policy.agent.qtable, QTableNumpy)
    policy = make_serve_policy("chrome", seed=1)
    assert isinstance(policy.agent.qtable, QTable)


def test_cli_backend_flag_sets_env(monkeypatch):
    # setenv first, so teardown removes the variable _apply_backend sets
    # (delenv of an absent variable records nothing to undo).
    monkeypatch.setenv("REPRO_BACKEND", "scalar")
    monkeypatch.delenv("REPRO_BACKEND")
    import os

    from repro.cli import _apply_backend

    _apply_backend(None)
    assert "REPRO_BACKEND" not in os.environ
    _apply_backend("numpy")
    assert os.environ["REPRO_BACKEND"] == "numpy"
    with pytest.raises(ValueError, match="backend"):
        _apply_backend("cuda")
