"""Environment-protocol conformance suite.

Parametrized over every registered environment adapter: registering a
new domain (``register_environment``) opts it into these checks
automatically.  The suite pins the contract every adapter must honor:

* **construction** — spec-driven, no hidden globals: two instances
  built from the same overrides are independent;
* **determinism** — run-twice equality of the full result object (the
  engine's ``--jobs 1`` vs ``--jobs N`` guarantee depends on it);
* **result shape** — ``run()`` returns the domain's result object, and
  it survives a pickle round trip equal (what the worker pool and the
  disk cache need);
* **snapshots** — ``agent_states()`` round-trips through
  ``load_agent_states``: a full restore (``keep_rng=False``)
  reproduces the snapshot byte-for-byte; a hot swap
  (``keep_rng=True``) transfers Q-values while the live agent keeps
  its own RNG stream and lookup/update counters;
* **backend byte-identity** — when numpy is available, the numpy
  backend (selected through ``REPRO_BACKEND``, as the CLI does)
  reproduces the scalar result exactly;
* **job identity** — an :class:`~repro.env.jobs.EnvJob`'s fingerprint
  moves with every adapter parameter and with the adapter's
  ``code_version``.

Small overrides keep each adapter's run to a few thousand steps so the
whole matrix stays test-suite fast.
"""

from __future__ import annotations

import inspect
import pickle
from dataclasses import fields, is_dataclass, replace

import pytest

from repro.env import available_environments, build_environment, env_job
from repro.env.registry import environment_factory
from repro.experiments.jobspec import MixSpec, PolicySpec


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


_SERVE_SMALL = dict(
    workload="zipf_scan",
    policy="chrome",
    capacity_bytes=1 << 20,
    num_segments=64,
    seed=17,
)

#: per-adapter overrides to keep conformance runs small
SMALL = {
    "sim": dict(
        mix=MixSpec.homogeneous("mcf06", 2, seed=7),
        policy=PolicySpec.named("chrome"),
        machine_scale=1 / 64,
        accesses_per_core=600,
        warmup_per_core=150,
    ),
    "serve": dict(_SERVE_SMALL, num_requests=600, warmup_requests=120),
    "cluster": dict(
        _SERVE_SMALL, num_requests=600, warmup_requests=0, num_shards=3
    ),
    "ops": dict(_SERVE_SMALL, num_requests=600, warmup_requests=120),
    "toy": dict(num_steps=1500),
}

#: the seed override per adapter (the sim seed lives in its mix)
RESEEDED = {"sim": dict(mix=MixSpec.homogeneous("mcf06", 2, seed=12345))}


def build_small(name: str, **extra):
    return build_environment(name, **{**SMALL.get(name, {}), **extra})


def environments():
    return available_environments()


@pytest.mark.parametrize("name", environments())
def test_env_registered_and_named(name):
    env = build_small(name)
    assert env.name == name
    assert isinstance(env.snapshot_kind, str) and env.snapshot_kind


@pytest.mark.parametrize("name", environments())
def test_env_run_twice_identical(name):
    r1 = build_small(name).run()
    r2 = build_small(name).run()
    assert r1 == r2


@pytest.mark.parametrize("name", environments())
def test_env_result_is_portable(name):
    result = build_small(name).run()
    assert pickle.loads(pickle.dumps(result)) == result


@pytest.mark.parametrize("name", environments())
def test_env_seed_changes_result(name):
    base = build_small(name).run()
    other = build_small(name, **RESEEDED.get(name, dict(seed=12345))).run()
    assert base != other


@pytest.mark.parametrize("name", environments())
def test_env_snapshot_full_restore_roundtrip(name):
    env = build_small(name)
    env.run()
    states = env.agent_states()
    assert isinstance(states, list) and states
    for state in states:
        assert state["kind"] == env.snapshot_kind

    fresh = build_small(name)
    fresh.load_agent_states(states, keep_rng=False)
    assert fresh.agent_states() == states


@pytest.mark.parametrize("name", environments())
def test_env_snapshot_hot_swap_keeps_rng(name):
    env = build_small(name)
    env.run()
    states = env.agent_states()

    fresh = build_small(name)
    before = fresh.agent_states()
    fresh.load_agent_states(states, keep_rng=True)
    after = fresh.agent_states()

    for prev, now, snap in zip(before, after, states):
        # Q-values transferred from the snapshot...
        assert now["qtable"]["tables"] == snap["qtable"]["tables"]
        # ...but the live agent kept its own RNG stream and counters.
        assert now["rng_state"] == prev["rng_state"]
        assert now["qtable"]["lookups"] == prev["qtable"]["lookups"]
        assert now["qtable"]["updates"] == prev["qtable"]["updates"]


@pytest.mark.parametrize("name", environments())
def test_env_snapshot_restore_resumes_identically(name):
    """Restore-then-inspect: a restored twin exposes the same state."""
    env = build_small(name)
    env.run()
    states = env.agent_states()

    twin = build_small(name)
    twin.load_agent_states(states, keep_rng=False)
    assert twin.agent_states() == env.agent_states()


@pytest.mark.skipif(not _numpy_available(), reason="numpy not installed")
@pytest.mark.parametrize("name", environments())
def test_env_backend_byte_identity(name, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "scalar")
    scalar = build_small(name).run()
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    vector = build_small(name).run()
    assert scalar == vector


@pytest.mark.parametrize("name", ["cluster", "ops"])
def test_env_obs_attaches_only_on_first_use(name, tmp_path):
    """Fleet-backed adapters build their champion lazily: a run after a
    snapshot call cannot instrument an already-built champion."""
    from repro.obs import ObsConfig

    env = build_small(name)
    env.agent_states()
    with pytest.raises(ValueError, match="first use"):
        env.run(obs=ObsConfig(out_dir=str(tmp_path)).session(name))


# --- job identity ---------------------------------------------------------------


def _variants(value):
    """Different values of the same shape (fingerprints never run them);
    a dataclass value varies one field at a time."""
    if is_dataclass(value):
        return [
            replace(value, **{f.name: v})
            for f in fields(value)
            for v in _variants(getattr(value, f.name))
        ]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        return [value + 1]
    if isinstance(value, str):
        return [value + "-x"]
    if isinstance(value, tuple):
        return [value + (("perturbed", 1),)]
    if value is None:
        return [0.5]
    raise TypeError(f"no variant for {value!r}")


@pytest.mark.parametrize("name", environments())
def test_fingerprint_changes_with_every_param(name):
    base = env_job(name, **SMALL.get(name, {}))
    params = base.params
    assert set(params) == set(inspect.signature(environment_factory(name)).parameters)
    seen = {base.fingerprint}
    for key, value in params.items():
        for variant in _variants(value):
            job = env_job(name, **{**params, key: variant})
            assert job.fingerprint not in seen, (key, variant)
            seen.add(job.fingerprint)


@pytest.mark.parametrize("name", environments())
def test_fingerprint_changes_with_code_version(name, monkeypatch):
    job = env_job(name, **SMALL.get(name, {}))
    before = job.fingerprint
    factory = environment_factory(name)
    monkeypatch.setattr(factory, "code_version", factory.code_version + "+1")
    assert job.fingerprint != before


def test_env_job_fills_in_defaults():
    """A defaulted parameter spelled out is the same job (one cache entry)."""
    assert env_job("toy") == env_job("toy", num_steps=4000)
    assert env_job("toy").fingerprint == env_job("toy", num_steps=4000).fingerprint


def test_env_job_rejects_bad_params_when_built():
    with pytest.raises(TypeError):
        env_job("toy", bogus=1)
    with pytest.raises(TypeError):
        env_job("serve", workload="zipf_scan")  # required params missing
    with pytest.raises(KeyError):
        env_job("no-such-environment")


# --- engine integration ---------------------------------------------------------


def test_env_job_spec_roundtrip():
    job = env_job("toy", num_steps=1500, seed=3)
    params = dict(job.env_params)
    assert params["num_steps"] == 1500 and params["seed"] == 3
    assert params["num_banks"] == 16  # defaults filled in
    assert [k for k, _ in job.env_params] == sorted(params)
    assert job.canonical() == ("env", "toy", job.env_params)
    assert hash(job) == hash(env_job("toy", seed=3, num_steps=1500))
    assert job.label == "toy num_steps=1500 seed=3"
    assert env_job("serve", **SMALL["serve"]).label.startswith(
        "serve workload=zipf_scan policy=chrome num_requests=600"
    )
    assert pickle.loads(pickle.dumps(job)) == job


def test_env_job_executes_like_direct_run():
    from repro.experiments.engine import Engine

    job = env_job("toy", num_steps=1500, seed=3)
    direct = build_environment("toy", num_steps=1500, seed=3).run()
    assert job.execute() == direct
    assert Engine(workers=1).run_jobs([job])[job] == direct


def test_env_toy_plan_parallel_bit_identical():
    """env_toy through the engine: --jobs 1 == --jobs 2, byte for byte."""
    from repro.env.experiments import env_toy_plan
    from repro.experiments.engine import Engine
    from repro.experiments.runner import ExperimentScale

    tiny = ExperimentScale(accesses_per_core=4000, warmup_per_core=1000)
    serial = Engine(workers=1).run_plan(env_toy_plan(tiny))
    parallel = Engine(workers=2).run_plan(env_toy_plan(tiny))
    assert serial == parallel
    assert serial.experiment_id == "env_toy"
    assert serial.rows
