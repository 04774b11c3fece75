"""Tests for the parallel experiment engine (jobs, dedup, caching,
determinism) and the public experiment registry API."""

import pytest

from repro.cli import main
from repro.experiments import (
    Engine,
    ExperimentPlan,
    ExperimentResult,
    ExperimentScale,
    MixSpec,
    PolicySpec,
    ResultCache,
    available_experiments,
    get_plan,
    job_for,
    register_experiment,
    run_experiment,
)
from repro.experiments.ablations import ABLATIONS
from repro.experiments.figures import (
    _suite_workloads,
    fig6_plan,
    fig10_plan,
    tab3_plan,
)
from repro.env import EnvJob
from repro.experiments.registry import PLANS

TINY = ExperimentScale(
    machine_scale=1 / 64,
    accesses_per_core=350,
    warmup_per_core=80,
    workload_limit=2,
    hetero_mixes=2,
)

MICRO = ExperimentScale(
    machine_scale=1 / 64,
    accesses_per_core=200,
    warmup_per_core=40,
    workload_limit=1,
    hetero_mixes=2,
)


def _job(scale=MICRO, policy="lru", name="hmmer06", cores=2, prefetch="nl_stride"):
    return job_for(scale, MixSpec.homogeneous(name, cores), policy, prefetch=prefetch)


# --- determinism -------------------------------------------------------------


def test_fig6_bit_identical_serial_vs_parallel():
    serial = Engine(workers=1).run_plan(fig6_plan(TINY))
    parallel = Engine(workers=2).run_plan(fig6_plan(TINY))
    assert serial == parallel


def test_fig10_bit_identical_serial_vs_parallel():
    serial = Engine(workers=1).run_plan(fig10_plan(TINY))
    parallel = Engine(workers=2).run_plan(fig10_plan(TINY))
    assert serial == parallel


def test_execute_job_is_pure():
    job = _job()
    first = job.execute()
    second = job.execute()
    assert first.ipcs == second.ipcs
    assert first.llc_stats == second.llc_stats


# --- dedup + memo -----------------------------------------------------------


def test_engine_dedups_identical_jobs():
    engine = Engine(workers=1)
    job = _job()
    results = engine.run_jobs([job, job, job])
    assert len(results) == 1
    assert engine.stats.executed == 1


def test_engine_memoizes_across_plans():
    engine = Engine(workers=1)
    engine.run_plan(fig6_plan(TINY))
    executed_after_fig6 = engine.stats.executed
    engine.run_plan(fig6_plan(TINY))  # every job already memoized
    assert engine.stats.executed == executed_after_fig6
    assert engine.stats.memo_hits >= executed_after_fig6


def test_figures_share_suite_jobs():
    from repro.experiments.figures import fig7_plan, fig8_plan, fig9_plan

    assert set(fig6_plan(TINY).jobs) == set(fig7_plan(TINY).jobs)
    assert set(fig6_plan(TINY).jobs) == set(fig8_plan(TINY).jobs)
    assert set(fig6_plan(TINY).jobs) == set(fig9_plan(TINY).jobs)


# --- on-disk result cache ----------------------------------------------------


def test_result_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    job = _job()
    assert cache.get(job) is None
    result = job.execute()
    cache.put(job, result)
    replay = cache.get(job)
    assert replay is not None
    assert replay.ipcs == result.ipcs


def test_warm_cache_executes_zero_simulations(tmp_path):
    cold = Engine(workers=1, cache_dir=str(tmp_path))
    cold_result = cold.run_plan(fig6_plan(MICRO))
    assert cold.stats.executed > 0

    warm = Engine(workers=1, cache_dir=str(tmp_path))
    warm_result = warm.run_plan(fig6_plan(MICRO))
    assert warm.stats.executed == 0
    assert warm.stats.disk_hits == cold.stats.executed
    assert warm_result == cold_result


def test_cache_invalidated_on_spec_change(tmp_path):
    engine = Engine(workers=1, cache_dir=str(tmp_path))
    engine.run_jobs([_job()])
    assert engine.stats.executed == 1

    # Any spec change (here: run length) keys a different cache entry.
    changed = Engine(workers=1, cache_dir=str(tmp_path))
    changed.run_jobs([_job(scale=MICRO.with_overrides(accesses_per_core=201))])
    assert changed.stats.executed == 1
    assert changed.stats.disk_hits == 0


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    job = _job()
    cache.path(job).write_bytes(b"not a pickle")
    assert cache.get(job) is None


def test_corrupt_cache_entry_is_deleted_and_reexecuted(tmp_path):
    """A garbage cache file (truncated write, disk hiccup) must be
    treated as a miss: the engine re-executes the job and replaces the
    entry with a valid one."""
    seed_engine = Engine(workers=1, cache_dir=str(tmp_path))
    job = _job()
    good = seed_engine.run_jobs([job])[job]

    cache = ResultCache(tmp_path)
    # Truncated pickle: the first bytes of a valid entry.
    cache.path(job).write_bytes(cache.path(job).read_bytes()[:20])

    engine = Engine(workers=1, cache_dir=str(tmp_path))
    recovered = engine.run_jobs([job])[job]
    assert engine.stats.executed == 1  # re-ran, didn't trust the garbage
    assert engine.stats.disk_hits == 0
    assert recovered.ipcs == good.ipcs
    # ...and the entry was healed on disk.
    healed = ResultCache(tmp_path).get(job)
    assert healed is not None and healed.ipcs == good.ipcs


def test_cache_prune_removes_oldest_entries(tmp_path):
    import os
    import time

    cache = ResultCache(tmp_path)
    jobs = [_job(scale=MICRO.with_overrides(accesses_per_core=200 + i)) for i in range(4)]
    result = jobs[0].execute()  # representative payload; content is irrelevant
    for i, job in enumerate(jobs):
        cache.put(job, result)
        # mtimes must be distinct for a deterministic eviction order
        os.utime(cache.path(job), (time.time() - 100 + i, time.time() - 100 + i))

    assert cache.prune(2) == 2
    assert len(cache) == 2
    assert cache.get(jobs[0]) is None and cache.get(jobs[1]) is None
    assert cache.get(jobs[2]) is not None and cache.get(jobs[3]) is not None


def test_cache_prune_deterministic_on_mtime_ties(tmp_path):
    """Coarse-timestamp filesystems give same-tick entries identical
    mtimes; prune must still evict a deterministic set (filename
    tiebreak), not whatever order glob() happens to return."""
    import os

    cache = ResultCache(tmp_path)
    jobs = [_job(scale=MICRO.with_overrides(accesses_per_core=200 + i)) for i in range(5)]
    result = jobs[0].execute()
    for job in jobs:
        cache.put(job, result)
        os.utime(cache.path(job), (1_000_000_000, 1_000_000_000))  # all tied

    survivors_by_name = sorted(p.name for p in tmp_path.glob("*.pkl"))[2:]
    assert cache.prune(3) == 2
    assert sorted(p.name for p in tmp_path.glob("*.pkl")) == survivors_by_name

    # a second cache directory with the same tied entries prunes the
    # same way — the choice is a function of the entries, not the scan
    other = ResultCache(tmp_path / "replica")
    for job in jobs:
        other.put(job, result)
        os.utime(other.path(job), (1_000_000_000, 1_000_000_000))
    assert other.prune(3) == 2
    assert sorted(p.name for p in (tmp_path / "replica").glob("*.pkl")) == survivors_by_name


def test_cache_prune_noop_when_under_limit(tmp_path):
    cache = ResultCache(tmp_path)
    job = _job()
    cache.put(job, job.execute())
    assert cache.prune(10) == 0
    assert len(cache) == 1
    assert cache.prune(0) == 1  # prune everything is legal
    assert len(cache) == 0


def test_cache_prune_rejects_negative_limit(tmp_path):
    with pytest.raises(ValueError):
        ResultCache(tmp_path).prune(-1)


# --- job specs ---------------------------------------------------------------


def test_policy_spec_builds_fresh_instances():
    spec = PolicySpec.named("chrome")
    a = spec.build(1 / 64)
    b = spec.build(1 / 64)
    assert a is not b  # jobs never share mutable policy state


def test_chrome_variant_scales_sampled_sets():
    from repro.experiments.runner import scaled_sampled_sets

    policy = PolicySpec.chrome_variant(eq_fifo_size=12).build(1 / 16)
    assert policy.config.eq_fifo_size == 12
    assert policy.config.sampled_sets == scaled_sampled_sets(1 / 16)


def test_unknown_policy_factory_errors():
    with pytest.raises(KeyError):
        PolicySpec(factory="nope").build(1.0)


def test_analytic_plans_have_no_jobs():
    plan = tab3_plan(TINY)
    assert plan.jobs == ()
    assert plan.assemble({}).row_by_key("total")[1] == 92.7


# --- registry ----------------------------------------------------------------


def test_ablations_registered_eagerly():
    ids = available_experiments()
    assert "abl_bypass" in ids and "extended_baselines" in ids
    assert "fig6" in ids and "tab7" in ids


def test_every_paper_figure_has_a_plan():
    for experiment_id in available_experiments():
        if experiment_id.startswith(("fig", "tab")):
            assert get_plan(experiment_id) is not None, experiment_id


def test_every_plan_schedules_only_env_jobs():
    """One job kind: every registered experiment's plan (built, not run)."""
    for experiment_id in available_experiments():
        plan = get_plan(experiment_id)(MICRO)
        assert all(isinstance(job, EnvJob) for job in plan.jobs), experiment_id


def test_register_experiment_roundtrip():
    job = _job()

    def custom_plan(scale):
        return ExperimentPlan(
            "custom_test_exp",
            (job,),
            lambda results: ExperimentResult(
                "custom_test_exp", "custom", ["policy"], [[results[job].policy_name]]
            ),
        )

    register_experiment("custom_test_exp", custom_plan)
    try:
        assert "custom_test_exp" in available_experiments()
        assert get_plan("custom_test_exp") is custom_plan
        engine = Engine(workers=1)
        assert run_experiment("custom_test_exp", MICRO, engine).rows == [["lru"]]
        assert engine.stats.executed == 1
    finally:
        PLANS.pop("custom_test_exp", None)


# --- plans sharing one engine ------------------------------------------------


def test_plan_baseline_goes_through_engine():
    engine = Engine(workers=1)
    run_experiment("abl_bypass", MICRO, engine)
    # The LRU baseline the ablation declared is the job every 4-core
    # figure shares, so it is now a memo hit.
    (name,) = _suite_workloads(MICRO)
    hits = engine.stats.memo_hits
    engine.run_jobs([job_for(MICRO, MixSpec.homogeneous(name, 4), "lru")])
    assert engine.stats.memo_hits == hits + 1


def test_ablations_reuse_the_fig6_chrome_suite():
    engine = Engine(workers=1)
    fig6 = set(fig6_plan(TINY).jobs)
    engine.run_plan(fig6_plan(TINY))
    for experiment_id in ("abl_bypass", "abl_prefetch_rewards", "abl_tiebreak"):
        plan = get_plan(experiment_id)(TINY)
        chrome = {
            job for job in plan.jobs if job.params["policy"] == PolicySpec.named("chrome")
        }
        assert len(chrome) == TINY.workload_limit and chrome <= fig6
        executed, memo = engine.stats.executed, engine.stats.memo_hits
        engine.run_plan(plan)
        # Only the variant's own jobs simulate; CHROME and LRU are memo hits.
        assert engine.stats.executed - executed == len(set(plan.jobs) - fig6)
        assert engine.stats.memo_hits - memo == len(set(plan.jobs) & fig6)


def test_ablations_warm_cache_hits_every_job(tmp_path):
    cache_dir = str(tmp_path)
    for experiment_id in ABLATIONS:
        cold = run_experiment(experiment_id, MICRO, Engine(1, cache_dir))
        warm_engine = Engine(1, cache_dir)
        warm = run_experiment(experiment_id, MICRO, warm_engine)
        assert warm == cold, experiment_id
        assert warm_engine.stats.executed == 0, experiment_id
        # CHROME variants included: every declared job is a disk hit.
        plan_jobs = get_plan(experiment_id)(MICRO).jobs
        assert warm_engine.stats.disk_hits == len(plan_jobs), experiment_id


def test_ablations_bit_identical_serial_vs_parallel():
    serial, parallel = Engine(workers=1), Engine(workers=2)
    for experiment_id in ABLATIONS:
        assert run_experiment(experiment_id, MICRO, serial) == run_experiment(
            experiment_id, MICRO, parallel
        ), experiment_id
    # Tables at this scale can tie; the raw per-job results must match too.
    jobs = [job for plan in ABLATIONS.values() for job in plan(MICRO).jobs]
    ours, theirs = serial.run_jobs(jobs), parallel.run_jobs(jobs)
    for job, result in ours.items():
        assert result.ipcs == theirs[job].ipcs, job.label
        assert result.llc_stats == theirs[job].llc_stats, job.label


def test_limit_workloads_even_spread_includes_first():
    scale = ExperimentScale(workload_limit=4)
    names = [f"w{i}" for i in range(10)]
    limited = scale.limit_workloads(names)
    assert len(limited) == 4
    assert limited[0] == "w0"
    assert limited == sorted(limited, key=names.index)  # preserves order
    assert len(set(limited)) == 4


def test_limit_workloads_cap_above_length_keeps_all():
    scale = ExperimentScale(workload_limit=99)
    names = ["a", "b", "c"]
    assert scale.limit_workloads(names) == names


# --- CLI ---------------------------------------------------------------------


def test_cli_run_fig6_parallel_smoke(capsys):
    code = main(
        [
            "run",
            "fig6",
            "--jobs",
            "2",
            "--quiet",
            "--scale",
            str(1 / 64),
            "--accesses",
            "250",
            "--warmup",
            "50",
            "--workloads",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "geomean" in out


def test_cli_cache_dir_warm_rerun(tmp_path, capsys):
    argv = [
        "run",
        "fig15",
        "--jobs",
        "1",
        "--cache-dir",
        str(tmp_path),
        "--scale",
        str(1 / 64),
        "--accesses",
        "200",
        "--warmup",
        "40",
        "--workloads",
        "1",
    ]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert main(argv) == 0
    second = capsys.readouterr()
    assert second.out.split("[fig15 took")[0] == first.out.split("[fig15 took")[0]
    assert "0 simulated" in second.err


def test_cli_rejects_bad_jobs(capsys):
    assert main(["run", "fig6", "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err
