"""Every output check must be able to fail: feed it known-bad outputs."""

from dataclasses import replace

from perfbench.checks import check_fleet, check_ops, check_serve, check_sim
from perfbench.workloads import fleet_chaos, serve_zipf, sim_hetero4
from repro.experiments.runner import ExperimentScale
from repro.serve.metrics import ServeMetrics

SHORT = ExperimentScale(accesses_per_core=3000, warmup_per_core=1000)
SHORT_SIM = ExperimentScale(accesses_per_core=1500, warmup_per_core=500)


def test_serve_partition_missing_a_request_is_rejected():
    good = ServeMetrics(policy="lru", workload="w", requests=10, hits=4, origin_served=6)
    assert check_serve(good, 10) == []
    bad = replace(good, origin_served=5)
    assert any("hits+origin" in f for f in check_serve(bad, 10))


def test_serve_short_measured_window_is_rejected():
    good = ServeMetrics(policy="lru", workload="w", requests=10, hits=4, origin_served=6)
    assert any("expected 11" in f for f in check_serve(good, 11))


def test_healthy_short_units_pass_every_check():
    for unit in (sim_hetero4(1, SHORT_SIM), serve_zipf(1, SHORT), fleet_chaos(1, SHORT)):
        assert unit.run().failures == []


def test_fleet_check_trips_without_federation():
    failures = fleet_chaos(1, SHORT, federate=False).run().failures
    assert any("no federation round ran" in f for f in failures)


def test_fleet_check_trips_without_shard_kill():
    failures = fleet_chaos(1, SHORT, kill=False).run().failures
    assert any("ring changes, expected 2" in f for f in failures)


class _Fleet:
    def __init__(self, requests):
        self.fleet = ServeMetrics(policy="chrome", workload="w", requests=requests)


class _OpsResult:
    def __init__(self, snapshots, shadow_requests, fleet_requests):
        self.snapshots = snapshots
        self.champion = _Fleet(fleet_requests)
        self.challenger = ServeMetrics(
            policy="lru", workload="w", requests=shadow_requests
        )


def test_ops_check_trips_without_snapshots_or_on_shadow_mismatch():
    assert check_ops(_OpsResult(3, 10, 10), expect_snapshots=True) == []
    assert check_ops(_OpsResult(0, 10, 10), expect_snapshots=True)
    assert check_ops(_OpsResult(3, 9, 10), expect_snapshots=True)


def test_fleet_check_trips_on_lost_requests():
    class Cluster:
        fleet = ServeMetrics(policy="chrome", workload="w", requests=4, hits=4)
        per_shard = [fleet]
        routed = [5]
        unroutable = 0
        ring_changes = 2
        federations = 1

    assert check_fleet(Cluster, 5, 4, federated=True) == []
    assert any("routed" in f for f in check_fleet(Cluster, 6, 4, federated=True))


def test_sim_check_trips_when_cores_stop_short():
    from repro.experiments.runner import resolve_policy
    from repro.sim.multicore import MultiCoreSystem, SystemConfig
    from repro.traces.mixes import heterogeneous_mix

    from perfbench.workloads import SIM_MIX

    scale = SHORT_SIM
    total = scale.accesses_per_core + scale.warmup_per_core
    traces = heterogeneous_mix(SIM_MIX, total, seed=1, scale=scale.machine_scale)
    budgets = [
        sum(r.gap + 1 for r in list(t)[scale.warmup_per_core:total]) for t in traces
    ]
    system = MultiCoreSystem(
        SystemConfig(num_cores=4, scale=scale.machine_scale),
        llc_policy=resolve_policy("lru", scale.machine_scale),
    )
    short = system.run(
        traces, max_accesses_per_core=total - 10, warmup_accesses=scale.warmup_per_core
    )
    failures = check_sim(short, budgets, "sim")
    assert len([f for f in failures if "retired" in f]) == 4


def test_sim_check_trips_on_zero_ipc():
    class Core:
        instructions = 100

    class Result:
        cores = [Core(), Core()]
        ipcs = [1.0, 0.0]

    assert check_sim(Result, [100, 100], "sim") == [
        "sim: core 1 IPC 0.0 is not positive"
    ]


def test_a_failed_check_fails_the_command(monkeypatch, capsys):
    import json

    from perfbench import run, workloads

    def failing(workload, seed, span=workloads.no_span):
        prepared = serve_zipf(seed, SHORT, span)

        def run_and_break():
            outcome = prepared.run()
            outcome.failures.append("injected failure")
            return outcome

        return workloads.Prepared(prepared.setup_s, run_and_break)

    monkeypatch.setattr(workloads, "prepare", failing)
    code = run.main(["--workload", "serve_zipf", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1
