"""Tests for repro.obs: instruments, timeline, tracer, session export,
and the zero-overhead-when-off contract across the sim and serve layers."""

import json

import pytest

from repro.obs import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    ObsConfig,
    Registry,
    SpanTracer,
    TimelineRecorder,
)
from repro.obs.registry import Counter, Gauge, Histogram
from repro.obs.report import render, summarize
from repro.obs.session import discover_artifacts, slugify
from repro.obs.timeline import iter_jsonl, merge_jsonl

# --- registry -----------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    reg = Registry()
    c = reg.counter("a.count")
    c.inc()
    c.inc(4)
    reg.gauge("a.level").set(0.75)
    h = reg.histogram("a.latency", bounds=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0):
        h.observe(v)
    snap = reg.snapshot()
    assert snap["a.count"] == {"type": "counter", "value": 5}
    assert snap["a.level"] == {"type": "gauge", "value": 0.75}
    assert snap["a.latency"]["bucket_counts"] == [1, 1, 1]
    assert snap["a.latency"]["count"] == 3
    assert snap["a.latency"]["min"] == 0.5
    assert snap["a.latency"]["max"] == 50.0


def test_registry_create_or_get_returns_same_instrument():
    reg = Registry()
    assert reg.counter("x") is reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_disabled_registry_is_noop():
    reg = Registry(enabled=False)
    c = reg.counter("never")
    g = reg.gauge("never2")
    h = reg.histogram("never3")
    assert c is NULL_COUNTER and g is NULL_GAUGE and h is NULL_HISTOGRAM
    c.inc(100)
    g.set(3.0)
    h.observe(1.0)
    reg.set_gauges("pre", {"a": 1.0})
    # Null instruments never mutate, and the registry remembers nothing.
    assert NULL_COUNTER.value == 0
    assert NULL_GAUGE.value == 0.0
    assert NULL_HISTOGRAM.count == 0
    assert reg.snapshot() == {}


def test_set_gauges_skips_non_numerics_and_bools():
    reg = Registry()
    reg.set_gauges("p", {"num": 2, "flt": 0.5, "text": "no", "flag": True})
    snap = reg.snapshot()
    assert set(snap) == {"p.num", "p.flt"}


# --- timeline -----------------------------------------------------------------


def test_timeline_roundtrip_and_merge():
    t1 = TimelineRecorder(source="job-a")
    t1.record("sim_epoch", epoch=0, camat=[1.5])
    t1.record("sim_summary", policy="lru")
    t2 = TimelineRecorder(source="job-b")
    t2.record("serve_window", seq=255)
    merged = merge_jsonl([t1.to_jsonl(), t2.to_jsonl()])
    rows = list(iter_jsonl(merged))
    assert len(rows) == 3
    assert rows[0] == {"kind": "sim_epoch", "source": "job-a", "epoch": 0,
                       "camat": [1.5]}
    assert [r["source"] for r in rows] == ["job-a", "job-a", "job-b"]
    assert t1.of_kind("sim_summary") == [{"kind": "sim_summary",
                                          "source": "job-a", "policy": "lru"}]


def test_timeline_encodes_odd_values_via_repr():
    t = TimelineRecorder()
    t.record("x", odd={1, 2})  # sets are not JSON-serializable
    (row,) = iter_jsonl(t.to_jsonl())
    assert row["odd"] in ("{1, 2}", "{2, 1}")


def test_empty_timeline_exports_empty_stream():
    assert TimelineRecorder().to_jsonl() == ""
    assert list(iter_jsonl("")) == []


# --- tracer -------------------------------------------------------------------


def test_tracer_chrome_trace_structure():
    tr = SpanTracer(process="sim")
    tr.name_thread(0, "epochs")
    tr.name_thread(1, "core0")
    tr.complete("epoch 0", 100.0, 50.0, tid=0, args={"obstructed_cores": 1})
    tr.instant("llc_obstructed", 150.0, tid=1)
    tr.counter("camat", 150.0, {"core0": 12.5})
    trace = tr.to_chrome_trace(pid=7)
    events = trace["traceEvents"]
    # 1 process_name + 2 thread_name metadata, then the 3 events.
    assert [e["ph"] for e in events] == ["M", "M", "M", "X", "i", "C"]
    assert all(e["pid"] == 7 for e in events)
    assert events[0]["args"] == {"name": "sim"}
    span = events[3]
    assert span["ts"] == 100.0 and span["dur"] == 50.0
    # The JSON form parses back to the same object.
    assert json.loads(tr.to_json(pid=7)) == trace


# --- session export -----------------------------------------------------------


def test_slugify():
    assert slugify("serve:zipf chrome +faults") == "serve_zipf_chrome_faults"
    assert slugify("   ") == "run"
    assert len(slugify("x" * 500)) == 120


def test_session_export_and_discover(tmp_path):
    config = ObsConfig(out_dir=str(tmp_path))
    session = config.session("job one")
    session.timeline.record("sim_epoch", epoch=0)
    session.registry.counter("sim.epochs").inc()
    session.tracer.instant("mark", 1.0)
    paths = session.export()
    assert paths["timeline"].name == "job_one.timeline.jsonl"
    assert len(list(iter_jsonl(paths["timeline"].read_text()))) == 1
    trace = json.loads(paths["trace"].read_text())
    assert any(e["name"] == "mark" for e in trace["traceEvents"])
    counters = json.loads(paths["counters"].read_text())
    assert counters["sim.epochs"]["value"] == 1
    found = discover_artifacts(str(tmp_path))
    assert [p.name for p in found["timeline"]] == ["job_one.timeline.jsonl"]


def test_export_writes_empty_artifacts(tmp_path):
    paths = ObsConfig(out_dir=str(tmp_path)).session("empty").export()
    assert paths["timeline"].read_text() == ""
    assert json.loads(paths["trace"].read_text())["traceEvents"]  # metadata
    assert json.loads(paths["counters"].read_text()) == {}


# --- zero-overhead contract: sim ----------------------------------------------


def _tiny_sim_job():
    from repro.env import env_job
    from repro.experiments.jobspec import MixSpec, PolicySpec

    return env_job(
        "sim",
        mix=MixSpec.homogeneous("bfs-ur", 2),
        policy=PolicySpec.named("chrome"),
        machine_scale=0.03125,
        accesses_per_core=2500,
        warmup_per_core=500,
    )


def test_sim_results_identical_with_and_without_obs(tmp_path):
    job = _tiny_sim_job()
    plain = job.execute()
    instrumented = job.execute(obs=ObsConfig(out_dir=str(tmp_path)))
    assert instrumented == plain


def test_sim_obs_artifacts_parse(tmp_path):
    job = _tiny_sim_job()
    job.execute(obs=ObsConfig(out_dir=str(tmp_path)))
    found = discover_artifacts(str(tmp_path))
    assert len(found["timeline"]) == 1
    assert job.fingerprint[:10] in found["timeline"][0].name
    rows = list(iter_jsonl(found["timeline"][0].read_text()))
    summary_rows = [r for r in rows if r["kind"] == "sim_summary"]
    assert len(summary_rows) == 1
    assert "camat_summary" in summary_rows[0]
    assert "q_health" in summary_rows[0]
    trace = json.loads(found["trace"][0].read_text())
    assert isinstance(trace["traceEvents"], list)


# --- zero-overhead contract: serve --------------------------------------------


def _serve_metrics(obs=None):
    from repro.env import env_job

    job = env_job(
        "serve",
        workload="zipf_scan",
        policy="chrome",
        num_requests=1500,
        warmup_requests=200,
        capacity_bytes=1 << 22,
        num_segments=64,
        num_clients=4,
        seed=3,
        fault_params=(("outage_every_ms", 400.0), ("outage_duration_ms", 60.0)),
    )
    return job.execute(obs=obs)


def test_serve_results_identical_with_and_without_obs(tmp_path):
    plain = _serve_metrics()
    instrumented = _serve_metrics(obs=ObsConfig(out_dir=str(tmp_path),
                                                serve_window=256))
    assert instrumented == plain


def test_serve_obs_timeline_covers_breakers_and_reward_mix(tmp_path):
    _serve_metrics(obs=ObsConfig(out_dir=str(tmp_path), serve_window=200))
    found = discover_artifacts(str(tmp_path))
    rows = list(iter_jsonl(found["timeline"][0].read_text()))
    windows = [r for r in rows if r["kind"] == "serve_window"]
    assert windows, "expected sampled serve_window rows"
    assert all("breaker_states" in w and "reward_mix" in w for w in windows)
    (summary,) = [r for r in rows if r["kind"] == "serve_summary"]
    assert 0.0 <= summary["object_hit_ratio"] <= 1.0
    assert "breaker_states" in summary


# --- ops events ---------------------------------------------------------------


def test_ops_events_reach_the_obs_timeline(tmp_path):
    from repro.env import env_job
    from repro.ops import OpsConfig

    job = env_job(
        "ops",
        workload="zipf_scan",
        policy="chrome",
        num_requests=1200,
        warmup_requests=200,
        capacity_bytes=2 << 20,
        num_segments=64,
        ops_params=OpsConfig(
            window=200, snapshot_every=2, degrade_at_window=3
        ).params(),
    )
    instrumented = job.execute(obs=ObsConfig(out_dir=str(tmp_path)))
    assert instrumented == job.execute()
    (timeline,) = discover_artifacts(str(tmp_path))["timeline"]
    events = [r for r in iter_jsonl(timeline.read_text()) if r["kind"] == "ops_event"]
    assert [e["event"] for e in events] == [e["kind"] for e in instrumented.events]
    assert "degrade" in {e["event"] for e in events}


# --- report -------------------------------------------------------------------


def test_report_summarize_and_render(tmp_path):
    _serve_metrics(obs=ObsConfig(out_dir=str(tmp_path), serve_window=300))
    summary = summarize(str(tmp_path))
    assert summary["sessions"] == 1
    assert summary["serve_window_rows"] > 0
    assert summary["counters"]["serve.requests"] == 1500
    text = render(summary)
    assert "serve chrome/zipf_scan" in text
    assert "hit_ratio=" in text


def test_report_on_empty_dir(tmp_path):
    summary = summarize(str(tmp_path))
    assert summary["sessions"] == 0
    assert "no artifacts found" in render(summary)
