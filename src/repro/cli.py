"""Command-line entry point: regenerate paper artifacts.

Usage::

    chrome-repro list
    chrome-repro run fig6 [--jobs 8 --cache-dir .repro-cache]
    chrome-repro run all [--scale 0.0625 --accesses 24000 ...]

Every experiment prints the same rows/series as the corresponding paper
table or figure (see DESIGN.md §4 for the index).  Simulations are
scheduled as declarative jobs on the parallel experiment engine:
``--jobs N`` fans independent simulations out across worker processes
(results are bit-identical to ``--jobs 1``), and ``--cache-dir``
memoizes completed jobs on disk so re-runs and cross-figure overlaps
are free.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from .experiments.engine import Engine
from .experiments.progress import ProgressReporter
from .experiments.registry import available_experiments, run_experiment
from .experiments.report import render
from .experiments.runner import ExperimentScale


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chrome-repro",
        description="Regenerate CHROME (HPCA 2024) tables and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (fig1..fig16, tab3/4/7, all)")
    run.add_argument("--scale", type=float, help="machine/working-set scale factor")
    run.add_argument("--accesses", type=int, help="measured accesses per core")
    run.add_argument("--warmup", type=int, help="warmup accesses per core")
    run.add_argument("--workloads", type=int, help="workload cap per figure (0=all)")
    run.add_argument("--mixes", type=int, help="heterogeneous mixes for fig10/11")
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for simulation jobs (default: all CPU cores)",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk result cache; warm re-runs execute zero simulations",
    )
    run.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-job progress/timing lines on stderr",
    )
    _add_obs_backend_args(run)

    report = sub.add_parser(
        "obs-report", help="summarize the artifacts of an obs-enabled run"
    )
    report.add_argument(
        "obs_dir", nargs="?", default="obs-artifacts",
        help="obs artifact directory (default obs-artifacts)",
    )

    cluster = sub.add_parser(
        "cluster", help="run one sharded cache fleet and print its metrics"
    )
    cluster.add_argument(
        "--shards", type=int, default=4, help="number of cache shards"
    )
    cluster.add_argument(
        "--replication", type=int, default=2, help="ring replication factor"
    )
    cluster.add_argument(
        "--policy", default="chrome", help="serve policy for every shard"
    )
    cluster.add_argument(
        "--workload", default="zipf_scan", help="request workload"
    )
    cluster.add_argument(
        "--requests", type=int, default=20000, help="measured requests"
    )
    cluster.add_argument(
        "--warmup", type=int, default=4000, help="warmup requests"
    )
    cluster.add_argument(
        "--capacity-mb", type=int, default=16, help="TOTAL fleet capacity (MiB)"
    )
    cluster.add_argument(
        "--clients", type=int, default=8, help="concurrent driver clients"
    )
    cluster.add_argument(
        "--seed", type=int, default=0, help="workload/ring/agent seed"
    )
    cluster.add_argument(
        "--federate-every", type=int, default=0, metavar="N",
        help="merge shard Q-tables every N requests (0 = isolated shards)",
    )
    cluster.add_argument(
        "--hotkey-window", type=int, default=0, metavar="N",
        help="hot-key detection window in requests (0 = off)",
    )
    cluster.add_argument(
        "--kill-shard", type=int, default=-1, metavar="I",
        help="kill shard I for the middle quarter of the run",
    )
    _add_obs_backend_args(cluster)

    ops = sub.add_parser(
        "ops",
        help="run one service/fleet under the live-operations control loop",
    )
    ops.add_argument(
        "--policy", default="chrome", help="champion serve policy"
    )
    ops.add_argument(
        "--workload", default="phases", help="request workload"
    )
    ops.add_argument(
        "--requests", type=int, default=20000, help="measured requests"
    )
    ops.add_argument(
        "--warmup", type=int, default=4000, help="warmup requests"
    )
    ops.add_argument(
        "--capacity-mb", type=int, default=4, help="cache capacity (MiB)"
    )
    ops.add_argument(
        "--clients", type=int, default=8, help="concurrent driver clients"
    )
    ops.add_argument(
        "--seed", type=int, default=0, help="workload/agent seed"
    )
    ops.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="cluster fleet of N shards (0 = single service)",
    )
    ops.add_argument(
        "--window", type=int, default=0, metavar="N",
        help="ops evaluation window in requests (default: run/16)",
    )
    ops.add_argument(
        "--challenger", default="", metavar="POLICY",
        help="shadow-evaluate POLICY against the champion's traffic",
    )
    ops.add_argument(
        "--promote-after", type=int, default=0, metavar="N",
        help="hot-swap the challenger in after N winning windows (0 = never)",
    )
    ops.add_argument(
        "--min-byte-hit", type=float, default=-1.0, metavar="R",
        help="guardrail: trip when the byte-hit EWMA falls below R",
    )
    ops.add_argument(
        "--max-p99", type=float, default=0.0, metavar="MS",
        help="guardrail: trip when a window's p99 exceeds MS virtual ms",
    )
    ops.add_argument(
        "--snapshot-every", type=int, default=4, metavar="N",
        help="push a last-known-good snapshot every N healthy windows",
    )
    ops.add_argument(
        "--degrade-at", type=int, default=-1, metavar="W",
        help="inject a simulated bad deploy at the end of window W",
    )
    _add_obs_backend_args(ops)
    return parser


def _add_obs_backend_args(sub: argparse.ArgumentParser) -> None:
    """The telemetry/backend flags every run-style subcommand shares."""
    sub.add_argument(
        "--obs",
        action="store_true",
        help="record repro.obs telemetry (timelines, Chrome traces, counters)",
    )
    sub.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="artifact directory for --obs (default obs-artifacts; implies --obs)",
    )
    sub.add_argument(
        "--backend",
        default=None,
        choices=["scalar", "numpy"],
        help="Q-table implementation for learned policies (bit-identical "
        "results — see DESIGN.md §9)",
    )


def _apply_backend(backend: Optional[str]) -> None:
    """Propagate --backend to every layer via the validated env var.

    Jobs cross process boundaries as frozen specs that carry no
    backend (it never changes results, so it must not enter a job's
    fingerprint); every construction site defers to ``REPRO_BACKEND``,
    so the env var is exactly the right channel: worker processes
    inherit it, and :func:`repro.core.backend.resolve_backend`
    validates it at every construction site.
    """
    if backend is not None:
        from .core.backend import resolve_backend

        os.environ["REPRO_BACKEND"] = resolve_backend(backend)


def _obs_config_from_args(args: argparse.Namespace):
    """ObsConfig when --obs/--obs-dir requested, else None (all subcommands)."""
    if not (args.obs or args.obs_dir is not None):
        return None
    from .obs import ObsConfig

    return ObsConfig(out_dir=args.obs_dir or "obs-artifacts")


def _request_scale(args: argparse.Namespace) -> ExperimentScale:
    """The scale a ``cluster``/``ops`` run's request counts describe."""
    return ExperimentScale(
        accesses_per_core=args.requests, warmup_per_core=args.warmup
    )


def _cluster_job_from_args(args: argparse.Namespace):
    """Build the ``cluster`` job the ``cluster`` subcommand describes.

    Split from the command so tests can assert that every CLI flag
    lands in the frozen job spec; raises ValueError on bad arguments.
    """
    from .env import env_job

    if args.shards < 1 or args.replication < 1:
        raise ValueError("--shards/--replication must be >= 1")
    kill_params = ()
    if args.kill_shard >= 0:
        if args.kill_shard >= args.shards:
            raise ValueError(
                f"--kill-shard {args.kill_shard} out of range "
                f"(fleet has {args.shards} shards)"
            )
        from .cluster.experiments import kill_fault_params

        kill_params = kill_fault_params(_request_scale(args))
    return env_job(
        "cluster",
        workload=args.workload,
        policy=args.policy,
        num_requests=args.requests,
        warmup_requests=args.warmup,
        capacity_bytes=args.capacity_mb << 20,
        num_segments=64,
        num_shards=args.shards,
        replication=args.replication,
        num_clients=args.clients,
        seed=args.seed,
        federate_every=args.federate_every,
        hotkey_window=args.hotkey_window,
        kill_shard=args.kill_shard if kill_params else -1,
        kill_fault_params=kill_params,
    )


def _run_cluster_command(args: argparse.Namespace) -> int:
    try:
        job = _cluster_job_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs_config = _obs_config_from_args(args)
    start = time.time()
    metrics = job.execute(obs=obs_config)
    fleet = metrics.fleet
    print(f"fleet: {args.shards} shards x {args.policy} on {args.workload}")
    print(
        f"  requests {fleet.requests}  object_hit "
        f"{100.0 * fleet.object_hit_ratio:.2f}%  byte_hit "
        f"{100.0 * fleet.byte_hit_ratio:.2f}%  p99 "
        f"{fleet.p99_latency_ms:.2f}ms"
    )
    print(
        f"  ring: routed {metrics.routed}  reroutes {metrics.reroutes}  "
        f"changes {metrics.ring_changes}  unroutable {metrics.unroutable}"
    )
    print(
        f"  federation rounds {metrics.federations}  hot_splits "
        f"{metrics.hot_splits}  hot_evictions {metrics.hot_evictions}"
    )
    for idx, m in enumerate(metrics.per_shard):
        print(
            f"  shard {idx}: requests {m.requests}  byte_hit "
            f"{100.0 * m.byte_hit_ratio:.2f}%  evictions {m.evictions}"
        )
    print(f"[cluster run took {time.time() - start:.1f}s]")
    if obs_config is not None:
        print(
            f"[obs artifacts in {obs_config.out_dir}; summarize with "
            f"`chrome-repro obs-report {obs_config.out_dir}`]",
            file=sys.stderr,
        )
    return 0


def _ops_job_from_args(args: argparse.Namespace):
    """Build the ``ops`` job the ``ops`` subcommand describes."""
    from .env import env_job
    from .ops import OpsConfig
    from .ops.experiments import ops_window

    if args.shards < 0:
        raise ValueError("--shards must be >= 0")
    ops_config = OpsConfig(
        window=args.window or ops_window(_request_scale(args)),
        challenger_policy=args.challenger,
        promote_after=args.promote_after,
        max_p99_ms=args.max_p99,
        min_byte_hit_ewma=args.min_byte_hit,
        snapshot_every=args.snapshot_every,
        degrade_at_window=args.degrade_at,
    )
    return env_job(
        "ops",
        workload=args.workload,
        policy=args.policy,
        num_requests=args.requests,
        warmup_requests=args.warmup,
        capacity_bytes=args.capacity_mb << 20,
        num_segments=64,
        num_clients=args.clients,
        seed=args.seed,
        ops_params=ops_config.params(),
        num_shards=args.shards,
    )


def _run_ops_command(args: argparse.Namespace) -> int:
    try:
        job = _ops_job_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs_config = _obs_config_from_args(args)
    start = time.time()
    result = job.execute(obs=obs_config)
    champion = result.champion
    fleet = champion.fleet if args.shards else champion
    tier = f"{args.shards}-shard fleet" if args.shards else "service"
    print(f"ops: {args.policy} {tier} on {args.workload}")
    print(
        f"  champion: requests {fleet.requests}  object_hit "
        f"{100.0 * fleet.object_hit_ratio:.2f}%  byte_hit "
        f"{100.0 * fleet.byte_hit_ratio:.2f}%  p99 "
        f"{fleet.p99_latency_ms:.2f}ms"
    )
    if result.challenger is not None:
        ch = result.challenger
        print(
            f"  challenger ({ch.policy}, shadow): object_hit "
            f"{100.0 * ch.object_hit_ratio:.2f}%  byte_hit "
            f"{100.0 * ch.byte_hit_ratio:.2f}%  p99 "
            f"{ch.p99_latency_ms:.2f}ms"
        )
    print(
        f"  ops: {len(result.windows)} windows  snapshots "
        f"{result.snapshots}  promotions {result.promotions}  trips "
        f"{result.trips}  rollbacks {result.rollbacks}  degradations "
        f"{result.degradations}"
    )
    for event in result.events:
        extra = {
            k: v
            for k, v in event.items()
            if k not in ("version", "kind", "window", "seq", "now_ms")
        }
        print(
            f"  event: {event['kind']} @ window {event['window']} "
            f"(seq {event['seq']}, {event['now_ms']:.1f}ms) {extra}"
        )
    print(f"[ops run took {time.time() - start:.1f}s]")
    if obs_config is not None:
        print(
            f"[obs artifacts in {obs_config.out_dir}; summarize with "
            f"`chrome-repro obs-report {obs_config.out_dir}`]",
            file=sys.stderr,
        )
    return 0


def _scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    return ExperimentScale.from_env().with_overrides(
        machine_scale=args.scale,
        accesses_per_core=args.accesses,
        warmup_per_core=args.warmup,
        workload_limit=args.workloads,
        hetero_mixes=args.mixes,
    )


def _run_cli(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    _apply_backend(getattr(args, "backend", None))
    if args.command == "cluster":
        return _run_cluster_command(args)
    if args.command == "ops":
        return _run_ops_command(args)
    if args.command == "obs-report":
        from .obs.report import render as render_obs, summarize

        print(render_obs(summarize(args.obs_dir)))
        return 0
    experiments = available_experiments()
    if args.command == "list":
        for experiment_id in experiments:
            print(experiment_id)
        return 0

    try:
        scale = _scale_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    targets = experiments if args.experiment == "all" else [args.experiment]
    unknown = [t for t in targets if t not in experiments]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        print(f"available: {experiments}", file=sys.stderr)
        return 2

    workers = args.jobs if args.jobs is not None else os.cpu_count() or 1
    if workers < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    progress = None if args.quiet else ProgressReporter(sys.stderr)
    obs_config = _obs_config_from_args(args)
    try:
        engine = Engine(
            workers=workers,
            cache_dir=args.cache_dir,
            progress=progress,
            obs=obs_config,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # One engine for the whole invocation: every experiment's plan
    # shares its job pool, so overlapping jobs run once.
    for target in targets:
        start = time.time()
        result = run_experiment(target, scale, engine)
        print(render(result))
        print(f"[{target} took {time.time() - start:.1f}s]\n")
    stats = engine.stats
    if not args.quiet and stats.total:
        print(
            f"[engine: {stats.total} jobs — {stats.executed} simulated, "
            f"{stats.disk_hits} disk-cache hits, {stats.memo_hits} memo hits]",
            file=sys.stderr,
        )
    if obs_config is not None:
        engine.export_obs()
        print(
            f"[obs artifacts in {obs_config.out_dir}; summarize with "
            f"`chrome-repro obs-report {obs_config.out_dir}`]",
            file=sys.stderr,
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point (handles downstream pipe closure gracefully)."""
    try:
        return _run_cli(argv)
    except BrokenPipeError:
        # e.g. `chrome-repro list | head` — downstream closed the pipe.
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
