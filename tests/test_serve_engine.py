"""Serve experiments on the parallel engine: scheduling, dedup,
disk caching and bit-identical parallelism for serve jobs."""

import pytest

from repro.cli import main
from repro.experiments import (
    Engine,
    ExperimentScale,
    ResultCache,
    MixSpec,
    available_experiments,
    get_plan,
    job_for,
)
from repro.env import EnvJob, env_job
from repro.serve.experiments import (
    FAULT_POLICIES,
    SERVE_PLANS,
    SERVE_POLICIES_COMPARED,
    serve_capacity,
    serve_zipf_plan,
)
from repro.serve.metrics import ServeMetrics

TINY = ExperimentScale(
    machine_scale=1 / 64,
    accesses_per_core=320,
    warmup_per_core=60,
    workload_limit=2,
    hetero_mixes=2,
)


def _serve_job(**overrides) -> EnvJob:
    spec = dict(
        workload="zipf_scan",
        policy="lru",
        num_requests=300,
        warmup_requests=50,
        capacity_bytes=1 << 20,
        num_segments=32,
        num_clients=3,
        seed=1,
    )
    spec.update(overrides)
    return env_job("serve", **spec)


# --- registration -------------------------------------------------------------


def test_serve_experiments_registered_eagerly():
    ids = available_experiments()
    for experiment_id in SERVE_PLANS:
        assert experiment_id in ids
        assert get_plan(experiment_id) is not None


def test_serve_plans_compare_every_policy():
    for experiment_id, plan_builder in SERVE_PLANS.items():
        plan = plan_builder(TINY)
        if experiment_id == "serve_faults":
            # chaos plan: (baseline, learned) x (naive, resilient)
            assert len(plan.jobs) == 2 * len(FAULT_POLICIES)
            specs = [job.params for job in plan.jobs]
            assert {p["policy"] for p in specs} == set(FAULT_POLICIES)
            assert all(p["fault_params"] for p in specs)
            modes = {p["resilience_params"] for p in specs}
            assert len(modes) == 2  # naive control vs resilient config
        else:
            assert len(plan.jobs) == len(SERVE_POLICIES_COMPARED)
            specs = [job.params for job in plan.jobs]
            assert {p["policy"] for p in specs} == set(SERVE_POLICIES_COMPARED)
            assert not any(p["fault_params"] for p in specs)


def test_serve_capacity_scales_with_machine_scale():
    big = serve_capacity(ExperimentScale(machine_scale=1.0))
    small = serve_capacity(ExperimentScale(machine_scale=1 / 64))
    assert big > small
    assert small >= 32 * (96 << 10)  # never below the floor


# --- engine dispatch ----------------------------------------------------------


def test_execute_job_dispatches_serve_jobs():
    metrics = _serve_job().execute()
    assert isinstance(metrics, ServeMetrics)
    assert metrics.requests == 300


def test_execute_job_rejects_unknown_job_kinds():
    # One job kind: an unknown environment is refused when the job is built.
    with pytest.raises(KeyError, match="unknown environment"):
        env_job("no-such-kind")


def test_serve_job_execute_is_pure():
    job = _serve_job(policy="chrome")
    first, second = job.execute(), job.execute()
    assert first.hits == second.hits
    assert repr(first.p99_latency_ms) == repr(second.p99_latency_ms)
    assert first.telemetry == second.telemetry


# --- determinism: serial vs parallel -----------------------------------------


def test_serve_zipf_bit_identical_serial_vs_parallel():
    serial = Engine(workers=1).run_plan(serve_zipf_plan(TINY))
    parallel = Engine(workers=2).run_plan(serve_zipf_plan(TINY))
    assert serial == parallel


def test_engine_dedups_identical_serve_jobs():
    engine = Engine(workers=1)
    job = _serve_job()
    results = engine.run_jobs([job, job, job])
    assert len(results) == 1
    assert engine.stats.executed == 1


# --- on-disk cache ------------------------------------------------------------


def test_warm_cache_executes_zero_serve_jobs(tmp_path):
    cold = Engine(workers=1, cache_dir=str(tmp_path))
    cold_result = cold.run_plan(serve_zipf_plan(TINY))
    assert cold.stats.executed == len(SERVE_POLICIES_COMPARED)

    warm = Engine(workers=1, cache_dir=str(tmp_path))
    warm_result = warm.run_plan(serve_zipf_plan(TINY))
    assert warm.stats.executed == 0
    assert warm.stats.disk_hits == cold.stats.executed
    assert warm_result == cold_result


def test_serve_result_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    job = _serve_job()
    assert cache.get(job) is None
    metrics = job.execute()
    cache.put(job, metrics)
    replay = cache.get(job)
    assert replay is not None
    assert replay.hits == metrics.hits
    assert repr(replay.mean_latency_ms) == repr(metrics.mean_latency_ms)


def test_serve_fingerprint_namespaced_from_sim_jobs():
    serve = _serve_job()
    sim = job_for(TINY, MixSpec.homogeneous("mcf06", 2), "lru")
    assert serve.canonical()[:2] == ("env", "serve")
    assert sim.canonical()[:2] == ("env", "sim")
    assert serve.fingerprint != sim.fingerprint


# --- CLI ----------------------------------------------------------------------


def test_cli_run_serve_zipf_parallel_smoke(capsys):
    code = main(
        [
            "run",
            "serve_zipf",
            "--jobs",
            "2",
            "--quiet",
            "--scale",
            str(1 / 64),
            "--accesses",
            "300",
            "--warmup",
            "50",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "byte_hit%" in out
    assert "chrome" in out and "lru" in out
    assert "CHROME byte hit ratio" in out  # the vs-LRU note


def test_cli_serve_cache_dir_warm_rerun(tmp_path, capsys):
    argv = [
        "run",
        "serve_phases",
        "--jobs",
        "1",
        "--cache-dir",
        str(tmp_path),
        "--scale",
        str(1 / 64),
        "--accesses",
        "250",
        "--warmup",
        "40",
    ]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert main(argv) == 0
    second = capsys.readouterr()
    split = "[serve_phases took"
    assert second.out.split(split)[0] == first.out.split(split)[0]
    assert "0 simulated" in second.err
