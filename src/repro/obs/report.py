"""Summarize the artifacts an obs-enabled run left behind.

One obs directory may hold artifacts from many sessions — the engine's
scheduling record plus one per executed job (worker processes export
their own; see :meth:`repro.env.jobs.EnvJob.execute`).  This
module aggregates across all of them: counter totals, per-stream
timeline digests (final C-AMAT / obstruction / reward mix for
simulations, hit ratios / breaker state / degradation for serve runs,
job provenance for the engine), and trace-file event counts.

``python -m repro.cli obs-report DIR`` (or ``tools/obs_report.py DIR``)
prints :func:`render` of :func:`summarize`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from .session import discover_artifacts
from .timeline import iter_jsonl


def _digest_rows(rows: List[dict]) -> dict:
    """Per-stream digest: row kinds plus the headline final numbers."""
    kinds: Dict[str, int] = {}
    for row in rows:
        kind = row.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
    digest: dict = {"rows": len(rows), "kinds": dict(sorted(kinds.items()))}
    for row in rows:
        kind = row.get("kind")
        if kind == "sim_summary":
            cam = row.get("camat_summary") or {}
            digest["sim"] = {
                "policy": row.get("policy"),
                "epochs": row.get("epochs_closed"),
                "camat": cam.get("per_core_camat"),
                "obstructed_epoch_fraction": cam.get(
                    "per_core_obstructed_epoch_fraction"
                ),
                "dram_row_hit_rate": row.get("dram_row_hit_rate"),
                "reward_mix": {
                    k[len("reward_") :]: v
                    for k, v in (row.get("policy_telemetry") or {}).items()
                    if k.startswith("reward_")
                },
                "q_health": row.get("q_health"),
            }
        elif kind == "serve_summary":
            digest["serve"] = {
                "policy": row.get("policy"),
                "workload": row.get("workload"),
                "requests": row.get("requests"),
                "object_hit_ratio": row.get("object_hit_ratio"),
                "p99_latency_ms": row.get("p99_latency_ms"),
                "errors": row.get("errors"),
                "degraded_fraction": row.get("degraded_fraction"),
                "breaker_opens": row.get("breaker_opens"),
                "breaker_states": row.get("breaker_states"),
            }
        elif kind == "engine_batch":
            batches = digest.setdefault("engine", {"batches": 0, "jobs": 0})
            batches["batches"] += 1
            batches["jobs"] += row.get("jobs", 0)
    return digest


def summarize(out_dir: str) -> dict:
    """Aggregate every artifact under ``out_dir`` into one dict."""
    import json

    artifacts = discover_artifacts(out_dir)
    streams: Dict[str, dict] = {}
    epoch_rows = window_rows = 0
    for path in artifacts["timeline"]:
        rows = list(iter_jsonl(path.read_text()))
        name = path.name[: -len(".timeline.jsonl")]
        digest = _digest_rows(rows)
        streams[name] = digest
        epoch_rows += digest["kinds"].get("sim_epoch", 0)
        window_rows += digest["kinds"].get("serve_window", 0)

    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    for path in artifacts["counters"]:
        snapshot = json.loads(path.read_text())
        for name, inst in snapshot.items():
            if inst.get("type") == "counter":
                counters[name] = counters.get(name, 0) + inst.get("value", 0)
            elif inst.get("type") == "gauge":
                gauges[name] = inst.get("value", 0.0)  # last file wins

    traces: Dict[str, int] = {}
    for path in artifacts["trace"]:
        trace = json.loads(path.read_text())
        traces[path.name] = len(trace.get("traceEvents", []))

    return {
        "out_dir": str(Path(out_dir)),
        "sessions": len(artifacts["timeline"]),
        "sim_epoch_rows": epoch_rows,
        "serve_window_rows": window_rows,
        "streams": dict(sorted(streams.items())),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "traces": dict(sorted(traces.items())),
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def render(summary: dict) -> str:
    """Human-readable report (one obs directory)."""
    lines = [
        f"obs report: {summary['out_dir']}",
        f"  sessions: {summary['sessions']}  "
        f"sim epochs: {summary['sim_epoch_rows']}  "
        f"serve windows: {summary['serve_window_rows']}",
    ]
    for name, digest in summary["streams"].items():
        kinds = ", ".join(f"{k}x{v}" for k, v in digest["kinds"].items())
        lines.append(f"  [{name}] {digest['rows']} rows ({kinds})")
        sim = digest.get("sim")
        if sim:
            mix = sim.get("reward_mix") or {}
            mix_text = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(mix.items()))
            q = sim.get("q_health") or {}
            lines.append(
                f"    sim {sim.get('policy')}: epochs={sim.get('epochs')} "
                f"camat={_fmt(sim.get('camat'))} "
                f"obstructed={_fmt(sim.get('obstructed_epoch_fraction'))} "
                f"dram_row_hit={_fmt(sim.get('dram_row_hit_rate'))}"
            )
            if mix_text:
                lines.append(f"    reward mix: {mix_text}")
            if q:
                lines.append(
                    f"    q-table: entries={q.get('q_entries')} "
                    f"coverage={_fmt(q.get('q_coverage'))} "
                    f"saturation={_fmt(q.get('q_saturation'))}"
                )
        serve = digest.get("serve")
        if serve:
            lines.append(
                f"    serve {serve.get('policy')}/{serve.get('workload')}: "
                f"requests={serve.get('requests')} "
                f"hit_ratio={_fmt(serve.get('object_hit_ratio'))} "
                f"p99={_fmt(serve.get('p99_latency_ms'))}ms "
                f"errors={serve.get('errors')} "
                f"degraded={_fmt(serve.get('degraded_fraction'))} "
                f"breaker_opens={serve.get('breaker_opens')}"
            )
            states = serve.get("breaker_states")
            if states:
                state_text = " ".join(f"t{t}={s}" for t, s in states.items())
                lines.append(f"    breakers: {state_text}")
        eng = digest.get("engine")
        if eng:
            lines.append(
                f"    engine: {eng['batches']} batches, {eng['jobs']} jobs"
            )
    if summary["counters"]:
        lines.append("  counters (summed across sessions):")
        for name, value in summary["counters"].items():
            lines.append(f"    {name} = {_fmt(value)}")
    if summary["gauges"]:
        lines.append("  gauges (last value):")
        for name, value in summary["gauges"].items():
            lines.append(f"    {name} = {_fmt(value)}")
    if summary["traces"]:
        lines.append("  chrome traces:")
        for name, events in summary["traces"].items():
            lines.append(f"    {name}: {events} events")
    if summary["sessions"] == 0:
        lines.append("  (no artifacts found — was the run started with --obs?)")
    return "\n".join(lines)
