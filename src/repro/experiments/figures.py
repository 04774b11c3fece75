"""Experiment implementations — one per paper table/figure.

Each figure is written declaratively: a ``<id>_plan(scale)`` builder
returns an :class:`~repro.experiments.engine.ExperimentPlan` holding the
frozen sim :class:`~repro.env.jobs.EnvJob` specs the figure needs
plus a *pure* ``assemble(results)`` step producing the
:class:`~repro.experiments.report.ExperimentResult` with the same
rows/series the paper reports.  The engine schedules jobs across worker
processes, deduplicates shared jobs between figures (Figs. 6-9 are four
views of one suite; every figure shares the per-mix LRU baselines), and
memoizes completed jobs on disk.

The plan is the only form of an experiment: the registry
(:mod:`repro.experiments.registry`) maps each id (``fig1`` .. ``fig16``,
``tab3``/``tab4``/``tab7``) to its plan builder, and
``run_experiment(id, scale, engine)`` runs that plan on an engine.

Runs are scaled by :class:`ExperimentScale` (env-overridable); shapes,
not absolute numbers, are the reproduction target (see DESIGN.md §5).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from ..core.overhead import (
    chrome_overhead,
    eq_overhead_kb,
    overhead_comparison,
    overhead_fraction_of_llc,
)
from ..sim.multicore import SystemResult
from ..sim.replacement import PAPER_SCHEMES
from ..traces.gap import GAP_TRACES
from ..traces.mixes import random_mix_names
from ..traces.spec import ALL_SPEC_WORKLOADS, representative_workloads
from .engine import ExperimentPlan
from ..env.jobs import EnvJob
from .jobspec import MixSpec, PolicySpec, job_for
from .metrics import (
    MixMetrics,
    geometric_mean,
    speedup_percent,
    summarize,
    weighted_speedup,
)
from .registry import register_experiment
from .report import ExperimentResult
from .runner import ExperimentScale

SCHEMES: Tuple[str, ...] = tuple(PAPER_SCHEMES)

JobResults = Mapping[EnvJob, SystemResult]


# --- shared suite runs (Figs. 6-9 reuse one set of simulations) --------------


#: Truncation priority for reduced suites: ordered so any prefix spans
#: the behaviour regimes (irregular chase, loop/stride partial fit,
#: pure stream, random+scan pollution, cache-friendly, phased, ...).
SUITE_PRIORITY: Tuple[str, ...] = (
    "xalancbmk06",
    "mcf17",
    "cam417",
    "libquantum06",
    "soplex06",
    "zeusmp06",
    "astar06",
    "gromacs06",
    "milc06",
    "leslie3d06",
    "omnetpp17",
    "gcc06",
    "hmmer06",
    "wrf06",
    "GemsFDTD06",
    "lbm17",
    "xz17",
    "bwaves06",
    "gcc17",
    "pop217",
    "fotonik3d17",
    "mcf06",
    "cactuBSSN17",
    "xalancbmk17",
    "wrf17",
    "roms17",
    "bwaves17",
)


def _suite_workloads(scale: ExperimentScale) -> List[str]:
    limit = scale.workload_limit
    if limit and limit < len(SUITE_PRIORITY):
        return list(SUITE_PRIORITY[:limit])
    return list(ALL_SPEC_WORKLOADS)


def _homo_job(
    scale: ExperimentScale,
    name: str,
    num_cores: int,
    policy: str | PolicySpec,
    prefetch: str = "nl_stride",
) -> EnvJob:
    return job_for(scale, MixSpec.homogeneous(name, num_cores), policy, prefetch)


def _hetero_job(
    scale: ExperimentScale,
    names: Sequence[str],
    seed: int,
    policy: str | PolicySpec,
    prefetch: str = "nl_stride",
) -> EnvJob:
    return job_for(
        scale, MixSpec.heterogeneous(tuple(names), seed=seed), policy, prefetch
    )


def _suite_jobs(
    scale: ExperimentScale,
    workloads: Sequence[str],
    num_cores: int,
    schemes: Sequence[str],
    prefetch: str = "nl_stride",
) -> Tuple[Dict[str, EnvJob], Dict[Tuple[str, str], EnvJob]]:
    """Per-workload LRU baselines plus one job per (workload, scheme)."""
    baselines = {
        name: _homo_job(scale, name, num_cores, "lru", prefetch)
        for name in workloads
    }
    runs = {
        (name, scheme): _homo_job(scale, name, num_cores, scheme, prefetch)
        for name in workloads
        for scheme in schemes
    }
    return baselines, runs


def _suite_metrics(
    baselines: Dict[str, EnvJob],
    runs: Dict[Tuple[str, str], EnvJob],
    results: JobResults,
) -> Dict[str, Dict[str, MixMetrics]]:
    """Assemble the suite view: workload -> scheme -> metrics vs LRU."""
    out: Dict[str, Dict[str, MixMetrics]] = {name: {} for name in baselines}
    for (name, scheme), job in runs.items():
        out[name][scheme] = summarize(results[job], results[baselines[name]])
    return out


def _flat(*job_groups) -> Tuple[EnvJob, ...]:
    jobs: List[EnvJob] = []
    for group in job_groups:
        values = group.values() if isinstance(group, dict) else group
        jobs.extend(values)
    return tuple(dict.fromkeys(jobs))


def _geomean_speedup(
    suite: Dict[str, Dict[str, MixMetrics]], scheme: str
) -> float:
    return speedup_percent(
        geometric_mean([m[scheme].weighted_speedup for m in suite.values()])
    )


def variant_speedup_plan(
    scale: ExperimentScale,
    experiment_id: str,
    title: str,
    key_column: str,
    variants: Sequence[Tuple[object, str | PolicySpec]],
    notes: Sequence[str],
    workloads: Sequence[str] | None = None,
) -> ExperimentPlan:
    """One row per ``(label, policy)`` variant: its geomean 4-core
    homogeneous speedup over the shared per-workload LRU baselines."""
    names = list(_suite_workloads(scale) if workloads is None else workloads)
    baselines = {name: _homo_job(scale, name, 4, "lru") for name in names}
    runs = {
        (label, name): _homo_job(scale, name, 4, policy)
        for label, policy in variants
        for name in names
    }

    def assemble(results: JobResults) -> ExperimentResult:
        rows = []
        for label, _policy in variants:
            speedups = [
                weighted_speedup(
                    results[runs[(label, name)]].ipcs, results[baselines[name]].ipcs
                )
                for name in names
            ]
            rows.append([label, speedup_percent(geometric_mean(speedups))])
        return ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            columns=[key_column, "speedup_pct"],
            rows=rows,
            notes=list(notes),
        )

    return ExperimentPlan(experiment_id, _flat(baselines, runs), assemble)


# --- Fig. 1: 16-core homogeneous headline comparison -------------------------


def fig1_plan(scale: ExperimentScale) -> ExperimentPlan:
    workloads = _suite_workloads(scale)
    workloads = workloads[: max(2, len(workloads) // 2)]  # 16-core runs are heavy
    baselines, runs = _suite_jobs(scale, workloads, 16, SCHEMES)

    def assemble(results: JobResults) -> ExperimentResult:
        suite = _suite_metrics(baselines, runs, results)
        rows = [[s, _geomean_speedup(suite, s)] for s in SCHEMES]
        return ExperimentResult(
            experiment_id="fig1",
            title="Speedup over LRU, 16-core homogeneous SPEC mixes (%)",
            columns=["scheme", "speedup_pct"],
            rows=rows,
            notes=[
                "paper: Hawkeye 6.8, Glider 6.2, Mockingjay 8.2, CARE 10.2, CHROME 12.9",
                f"workloads: {', '.join(workloads)}",
            ],
        )

    return ExperimentPlan("fig1", _flat(baselines, runs), assemble)


# --- Fig. 2: unused evicted blocks under Glider ----------------------------------


def fig2_plan(scale: ExperimentScale) -> ExperimentPlan:
    workloads = _suite_workloads(scale)
    jobs = {name: _homo_job(scale, name, 4, "glider") for name in workloads}

    def assemble(results: JobResults) -> ExperimentResult:
        rows = []
        fractions, again_fractions, prefetch_fractions = [], [], []
        for name in workloads:
            mgmt = results[jobs[name]].llc_mgmt
            unused = mgmt.unused_eviction_fraction
            again = mgmt.unused_requested_again_fraction
            prefetch = mgmt.unused_eviction_prefetch_fraction
            rows.append(
                [
                    name,
                    100 * unused,
                    100 * unused * again,
                    100 * unused * (1 - again),
                    100 * prefetch,
                ]
            )
            fractions.append(unused)
            again_fractions.append(unused * again)
            prefetch_fractions.append(prefetch)
        n = len(workloads)
        rows.append(
            [
                "mean",
                100 * sum(fractions) / n,
                100 * sum(again_fractions) / n,
                100 * (sum(fractions) - sum(again_fractions)) / n,
                100 * sum(prefetch_fractions) / n,
            ]
        )
        return ExperimentResult(
            experiment_id="fig2",
            title="Blocks evicted unused under Glider, 4-core (%)",
            columns=[
                "workload",
                "unused_pct",
                "requested_again_pct",
                "never_again_pct",
                "from_prefetch_pct",
            ],
            rows=rows,
            notes=[
                "paper means: 83.7% unused (28.0 reused later / 55.7 never), 70.0% from prefetch"
            ],
        )

    return ExperimentPlan("fig2", _flat(jobs), assemble)


# --- Fig. 3: static schemes under two prefetch configurations ---------------------


def fig3_plan(scale: ExperimentScale) -> ExperimentPlan:
    schemes = ("hawkeye", "glider", "mockingjay")
    workloads = scale.limit_workloads(representative_workloads())
    prefetchers = ("nl_stride", "stride_streamer")
    baselines = {
        (prefetch, name): _homo_job(scale, name, 4, "lru", prefetch)
        for prefetch in prefetchers
        for name in workloads
    }
    runs = {
        (prefetch, name, s): _homo_job(scale, name, 4, s, prefetch)
        for prefetch in prefetchers
        for name in workloads
        for s in schemes
    }

    def assemble(results: JobResults) -> ExperimentResult:
        rows = []
        for prefetch in prefetchers:
            for name in workloads:
                base = results[baselines[(prefetch, name)]]
                metrics = {
                    s: summarize(results[runs[(prefetch, name, s)]], base)
                    for s in schemes
                }
                rows.append(
                    [prefetch, name] + [metrics[s].speedup_percent for s in schemes]
                )
        return ExperimentResult(
            experiment_id="fig3",
            title="Static schemes vs prefetch configuration, 4-core (%)",
            columns=["prefetch", "workload", *schemes],
            rows=rows,
            notes=["paper: Mockingjay underperforms Glider across (b) stride+streamer"],
        )

    return ExperimentPlan("fig3", _flat(baselines, runs), assemble)


# --- Figs. 6-9: the 4-core SPEC homogeneous suite --------------------------------
#
# The four figures declare the *same* jobs — the engine's memo/dedup
# runs each simulation once no matter how many of them execute.


def _suite4_jobs(scale: ExperimentScale):
    return _suite_jobs(scale, _suite_workloads(scale), 4, SCHEMES)


def fig6_plan(scale: ExperimentScale) -> ExperimentPlan:
    baselines, runs = _suite4_jobs(scale)

    def assemble(results: JobResults) -> ExperimentResult:
        suite = _suite_metrics(baselines, runs, results)
        rows = [
            [name] + [suite[name][s].speedup_percent for s in SCHEMES]
            for name in suite
        ]
        rows.append(["geomean"] + [_geomean_speedup(suite, s) for s in SCHEMES])
        return ExperimentResult(
            experiment_id="fig6",
            title="Speedup over LRU, 4-core SPEC homogeneous mixes (%)",
            columns=["workload", *SCHEMES],
            rows=rows,
            notes=[
                "paper geomeans: Hawkeye 5.7, Glider 5.6, Mockingjay 7.6, CARE 7.6, CHROME 9.2"
            ],
        )

    return ExperimentPlan("fig6", _flat(baselines, runs), assemble)


def fig7_plan(scale: ExperimentScale) -> ExperimentPlan:
    baselines, runs = _suite4_jobs(scale)

    def assemble(results: JobResults) -> ExperimentResult:
        suite = _suite_metrics(baselines, runs, results)
        rows = [
            [name] + [100 * suite[name][s].demand_miss_ratio for s in SCHEMES]
            for name in suite
        ]
        rows.append(
            ["mean"]
            + [
                100
                * sum(suite[n][s].demand_miss_ratio for n in suite)
                / len(suite)
                for s in SCHEMES
            ]
        )
        return ExperimentResult(
            experiment_id="fig7",
            title="LLC demand miss ratio, 4-core SPEC homogeneous mixes (%)",
            columns=["workload", *SCHEMES],
            rows=rows,
            notes=[
                "paper means: Hawkeye 75.9, Glider 75.7, Mockingjay 73.6, CARE 72.4, CHROME 71.1"
            ],
        )

    return ExperimentPlan("fig7", _flat(baselines, runs), assemble)


def fig8_plan(scale: ExperimentScale) -> ExperimentPlan:
    baselines, runs = _suite4_jobs(scale)

    def assemble(results: JobResults) -> ExperimentResult:
        suite = _suite_metrics(baselines, runs, results)
        rows = [
            [name] + [100 * suite[name][s].ephr for s in SCHEMES] for name in suite
        ]
        rows.append(
            ["mean"]
            + [
                100 * sum(suite[n][s].ephr for n in suite) / len(suite)
                for s in SCHEMES
            ]
        )
        return ExperimentResult(
            experiment_id="fig8",
            title="Effective prefetch hit ratio, 4-core SPEC homogeneous mixes (%)",
            columns=["workload", *SCHEMES],
            rows=rows,
            notes=[
                "paper means: Hawkeye 27.9, Glider 23.0, Mockingjay 33.2, CARE 22.9, CHROME 41.4"
            ],
        )

    return ExperimentPlan("fig8", _flat(baselines, runs), assemble)


def fig9_plan(scale: ExperimentScale) -> ExperimentPlan:
    baselines, runs = _suite4_jobs(scale)
    schemes = ("mockingjay", "chrome")

    def assemble(results: JobResults) -> ExperimentResult:
        suite = _suite_metrics(baselines, runs, results)
        rows = []
        for name in suite:
            row: List[object] = [name]
            for s in schemes:
                row += [
                    100 * suite[name][s].bypass_coverage,
                    100 * suite[name][s].bypass_efficiency,
                ]
            rows.append(row)
        mean_row: List[object] = ["mean"]
        for s in schemes:
            mean_row += [
                100 * sum(suite[n][s].bypass_coverage for n in suite) / len(suite),
                100 * sum(suite[n][s].bypass_efficiency for n in suite) / len(suite),
            ]
        rows.append(mean_row)
        return ExperimentResult(
            experiment_id="fig9",
            title="Bypass coverage and efficiency, 4-core SPEC homogeneous mixes (%)",
            columns=[
                "workload",
                "mockingjay_coverage",
                "mockingjay_efficiency",
                "chrome_coverage",
                "chrome_efficiency",
            ],
            rows=rows,
            notes=["paper means (CHROME): 41.5% coverage, 70.8% efficiency"],
        )

    return ExperimentPlan("fig9", _flat(baselines, runs), assemble)


# --- Fig. 10: 4-core heterogeneous mixes ------------------------------------------


def fig10_plan(scale: ExperimentScale) -> ExperimentPlan:
    schemes = ("hawkeye", "glider", "mockingjay", "chrome")
    mixes = random_mix_names(scale.hetero_mixes, 4)
    baselines = {
        i: _hetero_job(scale, names, 100 + i, "lru")
        for i, names in enumerate(mixes)
    }
    runs = {
        (i, s): _hetero_job(scale, names, 100 + i, s)
        for i, names in enumerate(mixes)
        for s in schemes
    }

    def assemble(results: JobResults) -> ExperimentResult:
        per_mix: List[Tuple[str, Dict[str, MixMetrics]]] = []
        for i, names in enumerate(mixes):
            base = results[baselines[i]]
            metrics = {s: summarize(results[runs[(i, s)]], base) for s in schemes}
            per_mix.append(("+".join(names), metrics))
        per_mix.sort(key=lambda item: item[1]["chrome"].weighted_speedup)
        rows = [
            [label] + [m[s].speedup_percent for s in schemes]
            for label, m in per_mix
        ]
        rows.append(
            ["geomean"]
            + [
                speedup_percent(
                    geometric_mean([m[s].weighted_speedup for _, m in per_mix])
                )
                for s in schemes
            ]
        )
        best = sum(
            1
            for _, m in per_mix
            if m["chrome"].weighted_speedup
            >= max(m[s].weighted_speedup for s in schemes)
        )
        return ExperimentResult(
            experiment_id="fig10",
            title="Weighted speedup, 4-core heterogeneous mixes (%) — ascending in CHROME",
            columns=["mix", *schemes],
            rows=rows,
            notes=[
                "paper geomeans: Hawkeye 6.7, Glider 7.4, Mockingjay 8.6, CHROME 9.6",
                f"CHROME best in {best}/{len(per_mix)} mixes (paper: 119/150)",
            ],
        )

    return ExperimentPlan("fig10", _flat(baselines, runs), assemble)


# --- Fig. 11: scalability ----------------------------------------------------------


def fig11_plan(scale: ExperimentScale) -> ExperimentPlan:
    workloads = _suite_workloads(scale)
    small = workloads[: max(2, len(workloads) // 2)]
    homo = {}
    for cores in (4, 8, 16):
        use = workloads if cores == 4 else small
        homo[cores] = _suite_jobs(scale, use, cores, SCHEMES)
    hetero_count = max(2, scale.hetero_mixes // 4)
    hetero: Dict[int, Tuple[Dict, Dict]] = {}
    for cores in (4, 8, 16):
        mixes = random_mix_names(hetero_count, cores, seed=7 + cores)
        baselines = {
            i: _hetero_job(scale, names, 200 + i, "lru")
            for i, names in enumerate(mixes)
        }
        runs = {
            (i, s): _hetero_job(scale, names, 200 + i, s)
            for i, names in enumerate(mixes)
            for s in SCHEMES
        }
        hetero[cores] = (baselines, runs)

    def assemble(results: JobResults) -> ExperimentResult:
        rows = []
        for cores in (4, 8, 16):
            baselines, runs = homo[cores]
            suite = _suite_metrics(baselines, runs, results)
            rows.append(
                [f"homo-{cores}c"] + [_geomean_speedup(suite, s) for s in SCHEMES]
            )
        for cores in (4, 8, 16):
            baselines, runs = hetero[cores]
            speedups: Dict[str, List[float]] = {s: [] for s in SCHEMES}
            for i in baselines:
                base = results[baselines[i]]
                for s in SCHEMES:
                    speedups[s].append(
                        summarize(results[runs[(i, s)]], base).weighted_speedup
                    )
            rows.append(
                [f"hetero-{cores}c"]
                + [speedup_percent(geometric_mean(speedups[s])) for s in SCHEMES]
            )
        return ExperimentResult(
            experiment_id="fig11",
            title="Scalability: speedup over LRU for 4/8/16 cores (%)",
            columns=["config", *SCHEMES],
            rows=rows,
            notes=[
                "paper homo: CHROME 9.2/10.6/12.9; CARE 7.6/8.6/10.2 for 4/8/16 cores",
                "paper hetero: CHROME 9.6/12.9/14.4; CHROME margin grows with cores",
            ],
        )

    groups = []
    for cores in (4, 8, 16):
        groups.extend(homo[cores])
    for cores in (4, 8, 16):
        groups.extend(hetero[cores])
    return ExperimentPlan("fig11", _flat(*groups), assemble)


# --- Fig. 12: CHROME vs N-CHROME ---------------------------------------------------


def fig12_plan(scale: ExperimentScale) -> ExperimentPlan:
    workloads = _suite_workloads(scale)
    small = workloads[: max(2, len(workloads) // 2)]
    suites = {}
    for cores in (4, 8, 16):
        use = workloads if cores == 4 else small
        suites[cores] = _suite_jobs(scale, use, cores, ("chrome", "n-chrome"))

    def assemble(results: JobResults) -> ExperimentResult:
        rows = []
        for cores in (4, 8, 16):
            baselines, runs = suites[cores]
            suite = _suite_metrics(baselines, runs, results)
            rows.append(
                [
                    f"{cores}c",
                    _geomean_speedup(suite, "chrome"),
                    _geomean_speedup(suite, "n-chrome"),
                ]
            )
        return ExperimentResult(
            experiment_id="fig12",
            title="CHROME vs N-CHROME (no concurrency feedback), speedup (%)",
            columns=["cores", "chrome", "n-chrome"],
            rows=rows,
            notes=[
                "paper: CHROME 9.2/10.6/12.9 vs N-CHROME 8.3/9.1/10.0 — gap grows with cores"
            ],
        )

    groups = []
    for cores in (4, 8, 16):
        groups.extend(suites[cores])
    return ExperimentPlan("fig12", _flat(*groups), assemble)


# --- Fig. 13: GAP (unseen) workloads ----------------------------------------------


def fig13_plan(scale: ExperimentScale) -> ExperimentPlan:
    traces = scale.limit_workloads(list(GAP_TRACES))
    suites = {}
    for cores in (4, 8, 16):
        use = traces if cores == 4 else traces[: max(2, len(traces) // 2)]
        suites[cores] = _suite_jobs(scale, use, cores, SCHEMES)

    def assemble(results: JobResults) -> ExperimentResult:
        rows = []
        for cores in (4, 8, 16):
            baselines, runs = suites[cores]
            suite = _suite_metrics(baselines, runs, results)
            rows.append([f"{cores}c"] + [_geomean_speedup(suite, s) for s in SCHEMES])
        return ExperimentResult(
            experiment_id="fig13",
            title="GAP workloads (not used for tuning): speedup over LRU (%)",
            columns=["cores", *SCHEMES],
            rows=rows,
            notes=["paper: CHROME 9.5/12.1/16.0 for 4/8/16 cores; CARE second best"],
        )

    groups = []
    for cores in (4, 8, 16):
        groups.extend(suites[cores])
    return ExperimentPlan("fig13", _flat(*groups), assemble)


# --- Fig. 14: alternative prefetching schemes ----------------------------------------


def fig14_plan(scale: ExperimentScale) -> ExperimentPlan:
    workloads = _suite_workloads(scale)
    prefetchers = ("stride_streamer", "ipcp")
    suites = {
        prefetch: _suite_jobs(scale, workloads, 4, SCHEMES, prefetch)
        for prefetch in prefetchers
    }

    def assemble(results: JobResults) -> ExperimentResult:
        rows = []
        for prefetch in prefetchers:
            baselines, runs = suites[prefetch]
            suite = _suite_metrics(baselines, runs, results)
            rows.append([prefetch] + [_geomean_speedup(suite, s) for s in SCHEMES])
        return ExperimentResult(
            experiment_id="fig14",
            title="Speedup under alternative prefetchers, 4-core (%)",
            columns=["prefetch", *SCHEMES],
            rows=rows,
            notes=[
                "paper: stride+streamer CHROME 5.9 vs Mockingjay 5.2; IPCP CHROME 7.2 vs 5.7"
            ],
        )

    groups = []
    for prefetch in prefetchers:
        groups.extend(suites[prefetch])
    return ExperimentPlan("fig14", _flat(*groups), assemble)


# --- Table VII: EQ FIFO size sweep ---------------------------------------------------


def tab7_plan(scale: ExperimentScale) -> ExperimentPlan:
    workloads = _suite_workloads(scale)
    workloads = workloads[: max(3, len(workloads) // 2)]
    fifo_sizes = (12, 16, 20, 24, 28, 32, 36)
    baselines = {name: _homo_job(scale, name, 4, "lru") for name in workloads}
    runs = {
        (fifo, name): _homo_job(
            scale, name, 4, PolicySpec.chrome_variant(eq_fifo_size=fifo)
        )
        for fifo in fifo_sizes
        for name in workloads
    }

    def assemble(results: JobResults) -> ExperimentResult:
        rows = []
        for fifo in fifo_sizes:
            speedups, upksas = [], []
            for name in workloads:
                base = results[baselines[name]]
                result = results[runs[(fifo, name)]]
                speedups.append(weighted_speedup(result.ipcs, base.ipcs))
                upksas.append(result.extra["policy_telemetry"]["upksa"])
            rows.append(
                [
                    fifo,
                    speedup_percent(geometric_mean(speedups)),
                    sum(upksas) / len(upksas),
                    eq_overhead_kb(fifo),
                ]
            )
        return ExperimentResult(
            experiment_id="tab7",
            title="EQ FIFO size sweep (4-core SPEC homogeneous)",
            columns=["fifo_size", "speedup_pct", "upksa", "eq_overhead_kb"],
            rows=rows,
            notes=[
                "paper: speedup peaks at 28 (9.2%); UPKSA falls 911->759; overhead 5.4->16.3 KB",
            ],
        )

    return ExperimentPlan("tab7", _flat(baselines, runs), assemble)


# --- Fig. 15: feature ablation -------------------------------------------------------


def fig15_plan(scale: ExperimentScale) -> ExperimentPlan:
    variants = [
        ("pc_only", ("pc_sig",)),
        ("pn_only", ("page",)),
        ("pc+pn", ("pc_sig", "page")),
    ]
    return variant_speedup_plan(
        scale,
        "fig15",
        "CHROME feature ablation, 4-core SPEC homogeneous (%)",
        "features",
        [
            (label, PolicySpec.chrome_variant(features=features))
            for label, features in variants
        ],
        notes=["paper: PC-only 7.2%, PN-only 3.6%, PC+PN 9.2%"],
    )


# --- Fig. 16: hyper-parameter sensitivity ---------------------------------------------


def fig16_plan(scale: ExperimentScale) -> ExperimentPlan:
    workloads = _suite_workloads(scale)
    workloads = workloads[: max(3, len(workloads) // 2)]
    sweeps = [
        ("alpha", (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.5)),
        ("gamma", (1e-4, 1e-3, 1e-2, 1e-1, 0.5, 0.9)),
        ("epsilon", (0.0, 1e-4, 1e-3, 1e-2, 1e-1)),
    ]
    baselines = {name: _homo_job(scale, name, 4, "lru") for name in workloads}
    runs = {
        (param, value, name): _homo_job(
            scale, name, 4, PolicySpec.chrome_variant(**{param: value})
        )
        for param, values in sweeps
        for value in values
        for name in workloads
    }

    def assemble(results: JobResults) -> ExperimentResult:
        rows = []
        for param, values in sweeps:
            for value in values:
                speedups = []
                for name in workloads:
                    base = results[baselines[name]]
                    result = results[runs[(param, value, name)]]
                    speedups.append(weighted_speedup(result.ipcs, base.ipcs))
                rows.append([param, value, speedup_percent(geometric_mean(speedups))])
        return ExperimentResult(
            experiment_id="fig16",
            title="CHROME hyper-parameter sensitivity, 4-core (%)",
            columns=["parameter", "value", "speedup_pct"],
            rows=rows,
            notes=["paper optima: alpha ~1e-3..5e-2, gamma ~1e-1..0.37, epsilon 1e-3"],
        )

    return ExperimentPlan("fig16", _flat(baselines, runs), assemble)


# --- Tables III & IV: storage overhead (analytic — zero simulation jobs) -------------


def tab3_plan(scale: ExperimentScale) -> ExperimentPlan:
    def assemble(results: JobResults) -> ExperimentResult:
        breakdown = chrome_overhead()
        rows = [
            ["q-table", round(breakdown.qtable_kb, 1)],
            ["eq", round(breakdown.eq_kb, 1)],
            ["metadata(epv)", round(breakdown.metadata_kb, 1)],
            ["total", round(breakdown.total_kb, 1)],
            [
                "fraction_of_12MB_llc_pct",
                round(100 * overhead_fraction_of_llc(breakdown), 2),
            ],
        ]
        return ExperimentResult(
            experiment_id="tab3",
            title="CHROME storage overhead (KB)",
            columns=["component", "kb"],
            rows=rows,
            notes=["paper: 32 + 12.7 + 48 = 92.7 KB (0.75% of 12MB LLC)"],
        )

    return ExperimentPlan("tab3", (), assemble)


def tab4_plan(scale: ExperimentScale) -> ExperimentPlan:
    def assemble(results: JobResults) -> ExperimentResult:
        rows = [
            [
                s.scheme,
                "yes" if s.holistic else "no",
                "yes" if s.concurrency_aware else "no",
                s.overhead_kb,
                s.source,
            ]
            for s in overhead_comparison()
        ]
        return ExperimentResult(
            experiment_id="tab4",
            title="Storage overhead comparison (4-core, 12-way 12MB LLC)",
            columns=["scheme", "holistic", "concurrency", "overhead_kb", "source"],
            rows=rows,
            notes=["paper: 146 / 254 / 170.6 / 130.5 / 92.7 KB — CHROME smallest"],
        )

    return ExperimentPlan("tab4", (), assemble)


# --- registration -------------------------------------------------------------------

for _id, _plan in (
    ("fig1", fig1_plan),
    ("fig2", fig2_plan),
    ("fig3", fig3_plan),
    ("fig6", fig6_plan),
    ("fig7", fig7_plan),
    ("fig8", fig8_plan),
    ("fig9", fig9_plan),
    ("fig10", fig10_plan),
    ("fig11", fig11_plan),
    ("fig12", fig12_plan),
    ("fig13", fig13_plan),
    ("fig14", fig14_plan),
    ("fig15", fig15_plan),
    ("fig16", fig16_plan),
    ("tab3", tab3_plan),
    ("tab4", tab4_plan),
    ("tab7", tab7_plan),
):
    register_experiment(_id, _plan)
