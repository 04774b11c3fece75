"""Shared fixtures for the benchmark harness.

Each ``bench_*`` file regenerates one paper artifact (table or figure)
through the experiment registry.  pytest-benchmark records the wall
time of the regeneration; the rendered table is printed and saved under
``benchmarks/results/<id>.txt`` so EXPERIMENTS.md can be assembled from
the artifacts.

Run sizes: benchmarks default to a laptop-scale reduction (machine and
working sets at 1/16 scale, 12K measured accesses per core).  Override
through the same environment variables the CLI uses::

    REPRO_SCALE=0.125 REPRO_ACCESSES=50000 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import (
    Engine,
    ExperimentResult,
    ExperimentScale,
    render,
    run_experiment,
)

#: bench-suite defaults (env vars still win)
#: Online-RL convergence needs run length: CHROME keeps improving up to
#: ~50K accesses/core at 1/16 scale (see EXPERIMENTS.md), so the bench
#: defaults spend most of their budget on warmup.
BENCH_DEFAULTS = {
    "REPRO_SCALE": str(1 / 16),
    "REPRO_ACCESSES": "8000",
    "REPRO_WARMUP": "10000",
    "REPRO_WORKLOADS": "4",
    "REPRO_MIXES": "4",
}

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    for key, value in BENCH_DEFAULTS.items():
        os.environ.setdefault(key, value)
    return ExperimentScale.from_env()


@pytest.fixture(scope="session")
def bench_engine() -> Engine:
    """One serial engine for the whole session: Figs. 6-9 share
    simulations, and every experiment shares the LRU baselines."""
    return Engine(workers=1)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def regenerate(benchmark, bench_scale, bench_engine, results_dir):
    """Run one experiment under pytest-benchmark and persist its table."""

    def _run(experiment_id: str) -> ExperimentResult:
        result = benchmark.pedantic(
            lambda: run_experiment(experiment_id, bench_scale, bench_engine),
            rounds=1,
            iterations=1,
        )
        text = render(result)
        (results_dir / f"{experiment_id}.txt").write_text(text + "\n")
        print()
        print(text)
        return result

    return _run
