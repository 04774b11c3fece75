"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.experiments import ExperimentScale


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for expected in ("fig1", "fig16", "tab3", "tab7"):
        assert expected in out


def test_list_prints_every_registered_id(capsys):
    from repro.experiments import available_experiments

    assert main(["list"]) == 0
    printed = capsys.readouterr().out.splitlines()
    for experiment_id in available_experiments():
        assert experiment_id in printed, experiment_id


def test_list_includes_serve_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    for expected in ("serve_zipf", "serve_multitenant", "serve_phases"):
        assert expected in out


def test_run_unknown_experiment_errors(capsys):
    assert main(["run", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown" in err
    # the error is actionable: it lists what *is* runnable
    assert "available" in err and "fig6" in err and "serve_zipf" in err


def test_run_analytic_table(capsys):
    assert main(["run", "tab3"]) == 0
    out = capsys.readouterr().out
    assert "92.7" in out  # Table III total


def test_run_tab4(capsys):
    assert main(["run", "tab4"]) == 0
    out = capsys.readouterr().out
    assert "chrome" in out and "mockingjay" in out


def test_run_simulated_experiment_tiny(capsys):
    code = main(
        [
            "run",
            "fig15",
            "--scale",
            str(1 / 64),
            "--accesses",
            "300",
            "--warmup",
            "50",
            "--workloads",
            "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pc+pn" in out


def test_cli_flags_override_env(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_WORKLOADS", "7")
    from repro.cli import _build_parser, _scale_from_args

    args = _build_parser().parse_args(["run", "fig6", "--workloads", "2"])
    scale = _scale_from_args(args)
    assert scale.workload_limit == 2


# --- cluster/ops flag plumbing (flags must land in the frozen job specs) ------


def _parse(argv):
    from repro.cli import _build_parser

    return _build_parser().parse_args(argv)


def _spec(job):
    """A job's parameters, readable as attributes."""
    from types import SimpleNamespace

    return SimpleNamespace(**job.params)


def test_cluster_flags_reach_cluster_job():
    from repro.cli import _cluster_job_from_args

    job = _spec(_cluster_job_from_args(
        _parse(
            [
                "cluster", "--shards", "5", "--replication", "3",
                "--policy", "lru", "--workload", "phases",
                "--requests", "1234", "--warmup", "56",
                "--capacity-mb", "8", "--clients", "3", "--seed", "9",
                "--federate-every", "400", "--hotkey-window", "250",
            ]
        )
    ))
    assert (job.num_shards, job.replication) == (5, 3)
    assert (job.policy, job.workload) == ("lru", "phases")
    assert (job.num_requests, job.warmup_requests) == (1234, 56)
    assert job.capacity_bytes == 8 << 20
    assert (job.num_clients, job.seed) == (3, 9)
    assert (job.federate_every, job.hotkey_window) == (400, 250)
    assert job.kill_shard == -1 and job.kill_fault_params == ()


def test_cluster_kill_shard_validation():
    from repro.cli import _cluster_job_from_args

    with pytest.raises(ValueError, match="out of range"):
        _cluster_job_from_args(_parse(["cluster", "--kill-shard", "7"]))
    job = _spec(_cluster_job_from_args(
        _parse(["cluster", "--shards", "4", "--kill-shard", "2"])
    ))
    assert job.kill_shard == 2 and job.kill_fault_params
    # The subcommand's schedule is the experiments' schedule at its scale.
    from repro.cluster.experiments import kill_fault_params

    assert job.kill_fault_params == kill_fault_params(
        ExperimentScale(accesses_per_core=20000, warmup_per_core=4000)
    )
    with pytest.raises(ValueError, match="shards"):
        _cluster_job_from_args(_parse(["cluster", "--shards", "0"]))


def test_ops_flags_reach_ops_job():
    from repro.cli import _ops_job_from_args
    from repro.ops import OpsConfig

    job = _spec(_ops_job_from_args(
        _parse(
            [
                "ops", "--policy", "chrome", "--workload", "phases",
                "--requests", "3200", "--warmup", "200", "--capacity-mb", "2",
                "--clients", "4", "--seed", "17", "--shards", "3",
                "--window", "200", "--challenger", "lru",
                "--promote-after", "2", "--min-byte-hit", "0.05",
                "--max-p99", "9.5", "--snapshot-every", "2",
                "--degrade-at", "6",
            ]
        )
    ))
    assert (job.workload, job.policy) == ("phases", "chrome")
    assert (job.num_requests, job.warmup_requests) == (3200, 200)
    assert job.capacity_bytes == 2 << 20
    assert (job.num_clients, job.seed, job.num_shards) == (4, 17, 3)
    ops = OpsConfig.from_params(job.ops_params)
    assert ops.window == 200
    assert ops.challenger_policy == "lru" and ops.promote_after == 2
    assert ops.min_byte_hit_ewma == 0.05 and ops.max_p99_ms == 9.5
    assert ops.snapshot_every == 2 and ops.degrade_at_window == 6


def test_ops_window_defaults_to_sixteenth_of_run():
    from repro.cli import _ops_job_from_args
    from repro.ops import OpsConfig

    job = _spec(_ops_job_from_args(
        _parse(["ops", "--requests", "3200", "--warmup", "0"])
    ))
    assert OpsConfig.from_params(job.ops_params).window == 200
    from repro.ops.experiments import ops_window

    assert OpsConfig.from_params(job.ops_params).window == ops_window(
        ExperimentScale(accesses_per_core=3200, warmup_per_core=0)
    )
    with pytest.raises(ValueError, match="shards"):
        _ops_job_from_args(_parse(["ops", "--shards", "-1"]))


@pytest.mark.parametrize("command", ["cluster", "ops"])
def test_obs_and_backend_flags_are_uniform(command, monkeypatch, tmp_path):
    from repro.cli import _obs_config_from_args

    args = _parse([command])
    assert args.backend is None
    assert _obs_config_from_args(args) is None
    args = _parse([command, "--obs"])
    assert _obs_config_from_args(args).out_dir == "obs-artifacts"
    target = str(tmp_path / "artifacts")
    args = _parse([command, "--obs-dir", target, "--backend", "numpy"])
    assert _obs_config_from_args(args).out_dir == target  # implies --obs
    assert args.backend == "numpy"


def test_ops_cli_end_to_end_guarded_run(capsys):
    assert main(
        [
            "ops", "--requests", "2000", "--warmup", "200",
            "--capacity-mb", "2", "--clients", "2", "--seed", "17",
            "--window", "200", "--min-byte-hit", "0.05",
            "--snapshot-every", "2", "--degrade-at", "3",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "champion:" in out
    assert "event: degrade @ window 3" in out
    assert "rollbacks" in out
