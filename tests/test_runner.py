"""Tests for run-size scaling and scale-aware policy construction."""

import pytest

from repro.experiments import (
    Engine,
    MixSpec,
    job_for,
    summarize,
)
from repro.experiments.runner import (
    ExperimentScale,
    chrome_with,
    resolve_policy,
    scaled_sampled_sets,
)

FAST = ExperimentScale(
    machine_scale=1 / 64,
    accesses_per_core=400,
    warmup_per_core=100,
    workload_limit=2,
    hetero_mixes=2,
)


def test_scale_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.25")
    monkeypatch.setenv("REPRO_ACCESSES", "123")
    monkeypatch.setenv("REPRO_WORKLOADS", "0")
    scale = ExperimentScale.from_env()
    assert scale.machine_scale == 0.25
    assert scale.accesses_per_core == 123
    assert scale.workload_limit == 0


def test_env_typo_raises_clear_error(monkeypatch):
    monkeypatch.setenv("REPRO_ACCESSES", "24k")
    with pytest.raises(ValueError, match="REPRO_ACCESSES"):
        ExperimentScale.from_env()


def test_env_bad_float_raises_clear_error(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "1/16")
    with pytest.raises(ValueError, match="REPRO_SCALE"):
        ExperimentScale.from_env()


def test_env_rejects_non_positive(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "-0.5")
    with pytest.raises(ValueError, match="REPRO_SCALE"):
        ExperimentScale.from_env()
    monkeypatch.delenv("REPRO_SCALE")
    monkeypatch.setenv("REPRO_ACCESSES", "0")
    with pytest.raises(ValueError, match="REPRO_ACCESSES"):
        ExperimentScale.from_env()


def test_env_zero_workloads_means_all(monkeypatch):
    monkeypatch.setenv("REPRO_WORKLOADS", "0")
    assert ExperimentScale.from_env().workload_limit == 0
    monkeypatch.setenv("REPRO_WORKLOADS", "-1")
    with pytest.raises(ValueError, match="REPRO_WORKLOADS"):
        ExperimentScale.from_env()


def test_env_empty_string_means_unset(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "")
    assert ExperimentScale.from_env().machine_scale == ExperimentScale().machine_scale


def test_with_overrides_ignores_none():
    base = ExperimentScale()
    same = base.with_overrides(machine_scale=None, accesses_per_core=None)
    assert same == base
    changed = base.with_overrides(machine_scale=0.5, workload_limit=None)
    assert changed.machine_scale == 0.5
    assert changed.workload_limit == base.workload_limit


def test_with_overrides_rejects_unknown_field():
    with pytest.raises(TypeError):
        ExperimentScale().with_overrides(not_a_field=3)


def test_limit_workloads_even_spread():
    scale = ExperimentScale(workload_limit=3)
    names = [f"w{i}" for i in range(9)]
    limited = scale.limit_workloads(names)
    assert len(limited) == 3
    assert limited[0] == "w0"
    assert len(set(limited)) == 3


def test_limit_workloads_zero_keeps_all():
    scale = ExperimentScale(workload_limit=0)
    names = ["a", "b", "c"]
    assert scale.limit_workloads(names) == names


def test_resolve_policy_builds_by_name():
    assert resolve_policy("lru").name == "lru"
    chrome = resolve_policy("chrome", 1 / 16)
    assert chrome.config.sampled_sets == scaled_sampled_sets(1 / 16)
    assert resolve_policy("chrome", 1 / 16) is not chrome  # always fresh
    with pytest.raises(KeyError, match="unknown policy"):
        resolve_policy("nope")


def test_compare_normalizes_to_lru():
    mix = MixSpec.homogeneous("hmmer06", 2)
    jobs = {name: job_for(FAST, mix, name) for name in ("lru", "chrome")}
    results = Engine(workers=1).run_jobs(list(jobs.values()))
    base = results[jobs["lru"]]
    assert summarize(base, base).weighted_speedup == pytest.approx(1.0)
    assert summarize(results[jobs["chrome"]], base).scheme == "chrome"


def test_chrome_with_overrides():
    policy = chrome_with(eq_fifo_size=12, alpha=0.5, features=("pc_sig",))
    assert policy.config.eq_fifo_size == 12
    assert policy.config.alpha == 0.5
    assert policy.config.features == ("pc_sig",)


def test_chrome_with_defaults():
    policy = chrome_with()
    assert policy.config.eq_fifo_size == 28
    assert policy.config.alpha == pytest.approx(0.0498)


def test_heterogeneous_mix_key_distinct_per_names():
    a = job_for(FAST, MixSpec.heterogeneous(("hmmer06", "mcf06")), "lru")
    b = job_for(FAST, MixSpec.heterogeneous(("mcf06", "hmmer06")), "lru")
    assert a != b
    assert a.fingerprint != b.fingerprint
