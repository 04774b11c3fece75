"""Hot-path microbenchmarks: raw simulator accesses/sec.

Unlike the ``bench_fig*`` files (which regenerate paper artifacts),
this file measures the *simulator itself*: how many trace records per
second the access path sustains.  Three benches cover the three hot
loops the perf work targets:

* ``single_core_lru``   — the plain hierarchy walk (no RL, no sharing);
* ``quad_core_chrome``  — the paper's default configuration: 4 cores,
  heap-scheduled interleaving, CHROME deciding at the LLC;
* ``qtable_loop``       — the RL decision/update kernel in isolation
  (``best_action`` lookups with interleaved ``apply_delta`` updates);
* ``batch_qtable``      — the chunk-grained Q-table kernels
  (``best_actions``/``apply_deltas`` over pre-classified chunks) on
  the selected backend; this is where ``--backend numpy`` shows its
  vectorization win (the per-record benches above are sequential by
  nature and cannot batch).

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py               # full scale
    PYTHONPATH=src python benchmarks/bench_hotpath.py --tiny        # CI scale
    PYTHONPATH=src python benchmarks/bench_hotpath.py --backend numpy
    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --baseline benchmarks/hotpath_ci_baseline.json --tolerance 0.30

``--json PATH`` writes the measured rates; ``--baseline`` compares
against a committed baseline and exits non-zero if any bench regresses
by more than ``--tolerance`` (fractional).  ``--update-baseline``
rewrites the baseline file from this run — refusing the committed CI
baselines unless ``--force`` is also passed.  The repo-level perf
trajectory lives in ``benchmarks/results/BENCH_hotpath.json``
(before/after rates for each optimization PR).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Allow `python benchmarks/bench_hotpath.py` without PYTHONPATH gymnastics.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.backend import make_qtable, resolve_backend  # noqa: E402
from repro.core.chrome import ChromePolicy  # noqa: E402
from repro.core.config import MISS_ACTIONS, ChromeConfig  # noqa: E402
from repro.core.qtable import QTable  # noqa: E402
from repro.sim.multicore import MultiCoreSystem, SystemConfig  # noqa: E402
from repro.sim.replacement.lru import LRUPolicy  # noqa: E402
from repro.traces.mixes import heterogeneous_mix, homogeneous_mix  # noqa: E402

#: machine scale for the simulation benches (matches the bench suite)
SCALE = 1 / 16

#: per-bench work at full scale; --tiny divides by 10 for CI smoke runs
FULL_WORK = {
    "single_core_lru": 60_000,
    "quad_core_chrome": 15_000,  # per core -> 60K records total
    "qtable_loop": 150_000,
    "batch_qtable": 400_000,  # chunk-grained decide+update ops
}

#: committed CI baselines — --update-baseline refuses these without --force
_COMMITTED_BASELINES = (
    Path(__file__).resolve().parent / "perf_baseline_tiny.json",
    Path(__file__).resolve().parent / "perf_baseline_tiny_numpy.json",
)


def bench_single_core_lru(work: int) -> tuple:
    """Time the run loop only: traces are pre-materialized and the
    system is built before the clock starts, so the measurement is the
    simulator hot path, not setup or trace synthesis."""
    traces = [
        t.materialize() for t in homogeneous_mix("libquantum06", 1, work, seed=1, scale=SCALE)
    ]
    system = MultiCoreSystem(
        SystemConfig(num_cores=1, scale=SCALE), llc_policy=LRUPolicy()
    )
    start = time.perf_counter()
    system.run(traces)
    return work, time.perf_counter() - start


def bench_quad_core_chrome(work: int) -> tuple:
    traces = [
        t.materialize()
        for t in heterogeneous_mix(
            ["mcf06", "libquantum06", "lbm17", "omnetpp17"], work, seed=2, scale=SCALE
        )
    ]
    system = MultiCoreSystem(
        SystemConfig(num_cores=4, scale=SCALE), llc_policy=ChromePolicy()
    )
    start = time.perf_counter()
    system.run(traces)
    return 4 * work, time.perf_counter() - start


def bench_qtable_loop(work: int) -> tuple:
    qtable = QTable(num_features=2, config=ChromeConfig())
    states = [((i * 17) & 0xFFFF, (i * 29) & 0x3FFF) for i in range(2048)]
    mask = len(states) - 1
    start = time.perf_counter()
    for i in range(work):
        state = states[i & mask]
        action = qtable.best_action(state, MISS_ACTIONS)
        if i & 3 == 0:
            qtable.apply_delta(state, action, 0.0625)
    return work, time.perf_counter() - start


def bench_batch_qtable(work: int) -> tuple:
    """Chunk-grained kernels: decide a 2048-state chunk, train 512.

    Chunk preparation (state arrays, actions, deltas) happens before
    the clock starts, so only the kernels are timed.  The numpy
    backend gets read-only uint64 arrays (enabling its row-index memo,
    the batch analogue of the scalar table's row caches); the scalar
    reference gets the same states as tuples, which its own per-value
    memos serve.  Both sides then run identical
    ``best_actions``/``apply_deltas`` call sequences.
    """
    backend = resolve_backend(None)
    qtable = make_qtable(2, ChromeConfig())
    decide_n, update_n, num_chunks = 2048, 512, 16
    chunks = []
    for c in range(num_chunks):
        states = [
            (((i * 17 + c * 8191) & 0xFFFF), ((i * 29 + c * 524287) & 0x3FFF))
            for i in range(decide_n)
        ]
        update_states = states[:update_n]
        actions = [(i * 7 + c) & 3 for i in range(update_n)]
        deltas = [0.0625 * ((i + c) % 7 - 3) for i in range(update_n)]
        if backend == "numpy":
            import numpy as np

            darr = np.asarray(states, dtype=np.uint64)
            darr.flags.writeable = False
            uarr = np.asarray(update_states, dtype=np.uint64)
            uarr.flags.writeable = False
            chunks.append((darr, uarr, actions, deltas))
        else:
            chunks.append((states, update_states, actions, deltas))
    ops_per_chunk = decide_n + update_n
    iterations = max(1, work // ops_per_chunk)
    start = time.perf_counter()
    for i in range(iterations):
        decide_states, update_states, actions, deltas = chunks[i % num_chunks]
        qtable.best_actions(decide_states, MISS_ACTIONS)
        qtable.apply_deltas(update_states, actions, deltas)
    return iterations * ops_per_chunk, time.perf_counter() - start


BENCHES = {
    "single_core_lru": bench_single_core_lru,
    "quad_core_chrome": bench_quad_core_chrome,
    "qtable_loop": bench_qtable_loop,
    "batch_qtable": bench_batch_qtable,
}


def run_benches(tiny: bool = False, repeat: int = 1) -> dict:
    """Run every bench; return ``{name: {ops, seconds, ops_per_sec}}``.

    Each bench times only its hot section (setup excluded).  With
    ``repeat > 1`` the best (fastest) round is kept, which damps
    scheduler noise on shared CI machines.
    """
    results = {}
    for name, fn in BENCHES.items():
        work = FULL_WORK[name] // (10 if tiny else 1)
        best = None
        ops = 0
        for _ in range(max(1, repeat)):
            ops, elapsed = fn(work)
            if best is None or elapsed < best:
                best = elapsed
        results[name] = {
            "ops": ops,
            "seconds": round(best, 4),
            "ops_per_sec": round(ops / best, 1),
        }
    return results


def check_against_baseline(results: dict, baseline: dict, tolerance: float) -> list:
    """Return a list of human-readable regression descriptions (empty = ok)."""
    failures = []
    for name, entry in baseline.get("benches", {}).items():
        if name not in results:
            failures.append(f"{name}: present in baseline but not measured")
            continue
        floor = entry["ops_per_sec"] * (1.0 - tolerance)
        measured = results[name]["ops_per_sec"]
        if measured < floor:
            failures.append(
                f"{name}: {measured:.0f} ops/s < floor {floor:.0f} "
                f"(baseline {entry['ops_per_sec']:.0f}, tolerance {tolerance:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI-sized workloads (1/10)")
    parser.add_argument("--repeat", type=int, default=1, help="keep best of N rounds")
    parser.add_argument("--json", type=Path, help="write results to this file")
    parser.add_argument("--baseline", type=Path, help="baseline JSON to compare against")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional regression vs. baseline (default 0.30)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline from this run instead of checking",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="allow --update-baseline to overwrite a committed CI baseline",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=["scalar", "numpy"],
        help="Q-table execution backend (sets REPRO_BACKEND for this run)",
    )
    args = parser.parse_args(argv)

    if args.backend is not None:
        import os

        os.environ["REPRO_BACKEND"] = resolve_backend(args.backend)

    results = run_benches(tiny=args.tiny, repeat=args.repeat)
    for name, entry in results.items():
        print(
            f"{name:20s} {entry['ops']:>9d} ops  {entry['seconds']:>8.3f}s  "
            f"{entry['ops_per_sec']:>12,.0f} ops/s"
        )

    payload = {"tiny": args.tiny, "backend": resolve_backend(None), "benches": results}
    if args.json:
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.baseline:
        if args.update_baseline:
            if args.baseline.resolve() in _COMMITTED_BASELINES and not args.force:
                print(
                    f"refusing to overwrite committed CI baseline "
                    f"{args.baseline} (pass --force to override; remember "
                    f"to re-derate the floors, see the baseline's note)",
                    file=sys.stderr,
                )
                return 2
            args.baseline.write_text(json.dumps(payload, indent=2) + "\n")
            print(f"updated baseline {args.baseline}")
        elif args.baseline.exists():
            baseline = json.loads(args.baseline.read_text())
            failures = check_against_baseline(results, baseline, args.tolerance)
            if failures:
                for failure in failures:
                    print(f"PERF REGRESSION: {failure}", file=sys.stderr)
                return 1
            print(f"perf ok (within {args.tolerance:.0%} of {args.baseline})")
        else:
            print(f"baseline {args.baseline} missing; skipping check", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
