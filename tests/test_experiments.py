"""Structure tests for the experiment harness at tiny scale.

These run real (but minuscule) simulations, asserting each experiment
produces a well-formed table with the right rows/columns — the values
themselves are checked at benchmark scale (see EXPERIMENTS.md).
"""

import pytest

from repro.experiments import (
    Engine,
    ExperimentScale,
    available_experiments,
    get_plan,
    run_experiment,
)

TINY = ExperimentScale(
    machine_scale=1 / 64,
    accesses_per_core=350,
    warmup_per_core=80,
    workload_limit=2,
    hetero_mixes=2,
)


@pytest.fixture(scope="module")
def engine():
    return Engine(workers=1)


@pytest.fixture(scope="module")
def run(engine):
    """Run an experiment's plan at TINY scale on the module's engine."""
    return lambda experiment_id: engine.run_plan(get_plan(experiment_id)(TINY))


def test_registry_covers_every_paper_artifact():
    expected = {f"fig{i}" for i in (1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)}
    expected |= {"tab3", "tab4", "tab7"}
    assert expected <= set(available_experiments())


def test_run_experiment_unknown_id():
    with pytest.raises(KeyError, match="fig99"):
        run_experiment("fig99", TINY)


def test_suite_cache_reuses_runs(run, engine):
    first = run("fig15")
    executed = engine.stats.executed
    assert run("fig15") == first
    assert engine.stats.executed == executed  # every job a memo hit


def test_fig2_structure(run):
    result = run("fig2")
    assert result.columns[0] == "workload"
    assert result.rows[-1][0] == "mean"
    for row in result.rows:
        # unused% splits into requested-again + never-again
        assert row[1] == pytest.approx(row[2] + row[3], abs=0.1)


def test_fig3_covers_both_prefetch_configs(run):
    result = run("fig3")
    assert {"nl_stride", "stride_streamer"} == set(result.column("prefetch"))


def test_fig12_compares_chrome_variants(run):
    result = run("fig12")
    assert result.columns == ["cores", "chrome", "n-chrome"]
    assert [r[0] for r in result.rows] == ["4c", "8c", "16c"]


def test_fig15_has_three_variants(run):
    result = run("fig15")
    assert set(result.column("features")) == {"pc_only", "pn_only", "pc+pn"}


def test_tab7_upksa_monotone_nonincreasing(run):
    result = run("tab7")
    upksa = result.column("upksa")
    assert all(b <= a + 50 for a, b in zip(upksa, upksa[1:]))  # small-scale slack
    overheads = result.column("eq_overhead_kb")
    assert overheads == sorted(overheads)


def test_tab3_is_analytic_and_exact(run):
    result = run("tab3")
    assert result.row_by_key("q-table")[1] == 32.0
    assert result.row_by_key("eq")[1] == 12.7
    assert result.row_by_key("metadata(epv)")[1] == 48.0
    assert result.row_by_key("total")[1] == 92.7


def test_tab4_chrome_unique_capabilities(run):
    result = run("tab4")
    rows = {r[0]: r for r in result.rows}
    both = [name for name, r in rows.items() if r[1] == "yes" and r[2] == "yes"]
    assert both == ["chrome"]
