"""Unit tests for multi-programmed mix construction.

Beyond the generic homogeneous/heterogeneous plumbing, this module
enforces the Kill-Llama mix ladder's published contract — aggregate
LLC MPKI rises monotonically from mix1 to mix7 — under the tiny sim
config, and pins that STREAM kernel mixes decode through the numpy
backend's columnar chunk path bit-identically to the scalar walk.
"""

import pytest

from repro.traces.mixes import (
    ADDRESS_SPACE_STRIDE,
    KILL_LLAMA_APP_MAP,
    KILL_LLAMA_MIX_NAMES,
    KILL_LLAMA_MIXES,
    STREAM_KERNELS,
    build_stream_trace,
    heterogeneous_mix,
    homogeneous_mix,
    kill_llama_apps,
    kill_llama_mix,
    random_mix_names,
)
from repro.traces.spec import ALL_SPEC_WORKLOADS


def test_homogeneous_mix_one_trace_per_core():
    mix = homogeneous_mix("hmmer06", 4, 100, scale=1 / 64)
    assert len(mix) == 4


def test_homogeneous_copies_are_address_disjoint():
    mix = homogeneous_mix("hmmer06", 2, 200, scale=1 / 64)
    blocks0 = {r.address >> 6 for r in mix[0]}
    blocks1 = {r.address >> 6 for r in mix[1]}
    assert not (blocks0 & blocks1)


def test_homogeneous_copies_have_identical_relative_streams():
    mix = homogeneous_mix("hmmer06", 2, 150, scale=1 / 64)
    rel0 = [r.address - ADDRESS_SPACE_STRIDE for r in mix[0]]
    rel1 = [r.address - 2 * ADDRESS_SPACE_STRIDE for r in mix[1]]
    assert rel0 == rel1


def test_heterogeneous_mix_runs_distinct_workloads():
    mix = heterogeneous_mix(["hmmer06", "libquantum06"], 100, scale=1 / 64)
    assert len(mix) == 2
    pcs0 = {r.pc for r in mix[0]}
    pcs1 = {r.pc for r in mix[1]}
    assert pcs0 != pcs1


def test_heterogeneous_cores_address_disjoint():
    mix = heterogeneous_mix(["hmmer06", "hmmer06"], 100, scale=1 / 64)
    blocks0 = {r.address >> 6 for r in mix[0]}
    blocks1 = {r.address >> 6 for r in mix[1]}
    assert not (blocks0 & blocks1)


def test_random_mix_names_reproducible():
    a = random_mix_names(10, 4, seed=42)
    b = random_mix_names(10, 4, seed=42)
    assert a == b
    assert len(a) == 10
    assert all(len(names) == 4 for names in a)


def test_random_mix_names_draw_from_pool():
    mixes = random_mix_names(20, 8)
    for names in mixes:
        assert all(n in ALL_SPEC_WORKLOADS for n in names)


def test_random_mix_names_custom_pool():
    mixes = random_mix_names(5, 2, pool=["bfs-ur"], seed=1)
    assert all(names == ("bfs-ur", "bfs-ur") for names in mixes)


# --- the Kill-Llama mix ladder ------------------------------------------------


def test_kill_llama_names_are_mix1_through_mix7():
    assert KILL_LLAMA_MIX_NAMES == tuple(f"mix{i}" for i in range(1, 8))
    assert set(KILL_LLAMA_MIX_NAMES) == set(KILL_LLAMA_MIXES)


def test_kill_llama_apps_resolve_through_the_registry():
    from repro.traces.gap import GAP_TRACES

    registry = set(ALL_SPEC_WORKLOADS) | set(STREAM_KERNELS) | set(GAP_TRACES)
    for name in KILL_LLAMA_MIX_NAMES:
        apps = kill_llama_apps(name)
        assert len(apps) == 4
        assert all(app in registry for app in apps), (name, apps)


def test_kill_llama_map_covers_every_published_app():
    published = {app for apps in KILL_LLAMA_MIXES.values() for app in apps}
    assert published <= set(KILL_LLAMA_APP_MAP)


def test_kill_llama_unknown_mix_lists_names():
    with pytest.raises(KeyError) as excinfo:
        kill_llama_apps("mix9")
    assert "mix9" in str(excinfo.value)
    assert "mix1" in str(excinfo.value)


def test_kill_llama_mix_builds_four_disjoint_cores():
    traces = kill_llama_mix("mix4", 200, scale=1 / 64)
    assert len(traces) == 4
    blocks = [{r.address >> 6 for r in t} for t in traces]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (blocks[i] & blocks[j])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kill_llama_mpki_ladder_is_monotone(seed):
    """The published contract: aggregate LLC MPKI rises mix1 -> mix7.

    Runs the tiny sim config (4 cores at 1/64 scale, LRU LLC, 1200
    accesses per core) — the same reduced methodology every other sim
    test uses — across three mix seeds so the property is a fact about
    the calibration (STREAM gap tuples + app substitutions), not one
    lucky draw.
    """
    from repro.sim.multicore import MultiCoreSystem, SystemConfig
    from repro.sim.replacement.lru import LRUPolicy

    mpkis = []
    for name in KILL_LLAMA_MIX_NAMES:
        traces = kill_llama_mix(name, 1200, seed=seed, scale=1 / 64)
        system = MultiCoreSystem(
            SystemConfig(num_cores=4, scale=1 / 64), llc_policy=LRUPolicy()
        )
        result = system.run(traces)
        instructions = sum(core.instructions for core in result.cores)
        mpkis.append(1000.0 * result.llc_stats.demand_misses / instructions)
    assert all(a < b for a, b in zip(mpkis, mpkis[1:])), (
        f"MPKI ladder not monotone at seed {seed}: "
        + ", ".join(f"{m:.2f}" for m in mpkis)
    )


# --- STREAM kernels through the columnar numpy path ---------------------------


def test_stream_kernels_cover_the_published_four():
    assert set(STREAM_KERNELS) == {
        "stream_copy", "stream_scale", "stream_add", "stream_triad"
    }


def test_stream_trace_unknown_kernel_lists_names():
    with pytest.raises(KeyError) as excinfo:
        build_stream_trace("stream_sub", 10)
    assert "stream_sub" in str(excinfo.value)
    assert "stream_triad" in str(excinfo.value)


def test_stream_traces_are_sequential_and_reuse_free():
    trace = build_stream_trace("stream_triad", 600, seed=2, scale=1 / 64)
    reads = [r for r in trace if not r.is_write]
    writes = [r for r in trace if r.is_write]
    assert reads and writes
    # triad is (2 reads, 1 write) per element
    assert abs(len(reads) - 2 * len(writes)) <= 2
