"""Unit tests for the GAP graph-kernel trace generators."""

import numpy as np
import pytest

from repro.traces.gap import (
    DATASETS,
    GAP_TRACES,
    KERNELS,
    NEIGHBORS_BASE,
    OFFSETS_BASE,
    PROP_BASE,
    build_gap_trace,
    build_graph,
)


def test_trace_catalog_matches_paper():
    assert len(GAP_TRACES) == 15  # 5 kernels x 3 datasets
    assert set(KERNELS) == {"bc", "bfs", "cc", "pr", "sssp"}
    assert set(DATASETS) == {"or", "tw", "ur"}


def test_build_graph_csr_invariants():
    offsets, neighbors = build_graph("ur", num_vertices=512, avg_degree=4)
    assert offsets[0] == 0
    assert offsets[-1] == len(neighbors)
    assert np.all(np.diff(offsets) >= 0)  # monotone offsets
    assert neighbors.min() >= 0
    assert neighbors.max() < 512


def test_power_law_datasets_are_skewed():
    _, nb_tw = build_graph("tw", num_vertices=2048, avg_degree=8)
    _, nb_ur = build_graph("ur", num_vertices=2048, avg_degree=8)
    # Max in-degree concentration is far higher in the power-law graph.
    tw_top = np.bincount(nb_tw, minlength=2048).max()
    ur_top = np.bincount(nb_ur, minlength=2048).max()
    assert tw_top > 4 * ur_top


def test_build_graph_cached():
    a = build_graph("ur", num_vertices=256, avg_degree=4)
    b = build_graph("ur", num_vertices=256, avg_degree=4)
    assert a[0] is b[0]


def test_every_kernel_builds_and_yields():
    for name in GAP_TRACES:
        trace = build_gap_trace(name, 300, num_vertices=256, avg_degree=4)
        recs = list(trace)
        assert len(recs) == 300, name


def test_unknown_trace_name_raises():
    with pytest.raises(KeyError):
        build_gap_trace("pagerank-orkut", 10)
    with pytest.raises(KeyError):
        build_gap_trace("bfs", 10)


def test_bfs_touches_all_three_array_regions():
    recs = list(build_gap_trace("bfs-ur", 2000, num_vertices=512, avg_degree=8))
    regions = {r.address & ~((1 << 38) - 1) for r in recs}
    assert OFFSETS_BASE & ~((1 << 38) - 1) in regions
    assert NEIGHBORS_BASE & ~((1 << 38) - 1) in regions
    assert PROP_BASE & ~((1 << 38) - 1) in regions


def test_bfs_has_writes_for_parent_updates():
    recs = list(build_gap_trace("bfs-ur", 3000, num_vertices=512, avg_degree=8))
    assert any(r.is_write for r in recs)


def test_traces_deterministic_per_seed():
    a = list(build_gap_trace("sssp-tw", 500, seed=3, num_vertices=256))
    b = list(build_gap_trace("sssp-tw", 500, seed=3, num_vertices=256))
    assert a == b


def test_pr_sweeps_offsets_sequentially():
    recs = list(build_gap_trace("pr-ur", 5000, num_vertices=512, avg_degree=4))
    offset_reads = [r for r in recs if OFFSETS_BASE <= r.address < NEIGHBORS_BASE]
    idx = [(r.address - OFFSETS_BASE) // 8 for r in offset_reads]
    # PageRank iterates vertices in order: indices are non-decreasing
    # within an iteration (allow wrap at iteration boundary).
    wraps = sum(1 for a, b in zip(idx, idx[1:]) if b < a)
    assert wraps <= 1 + len(idx) // 512


def test_scale_controls_graph_size():
    small = build_gap_trace("bfs-ur", 100, scale=1 / 256)
    assert small.metadata["suite"] == "gap"
    # smallest graphs clamp to 1024 vertices
    recs = list(small)
    assert len(recs) == 100


def test_neighbor_accesses_are_bursty_sequential():
    """Within one vertex's edge scan, neighbor-array reads are
    consecutive — the signature GAP pattern prefetchers exploit."""
    recs = list(build_gap_trace("pr-ur", 3000, num_vertices=512, avg_degree=8))
    nbr = [
        (r.address - NEIGHBORS_BASE) // 8
        for r in recs
        if NEIGHBORS_BASE <= r.address < PROP_BASE
    ]
    sequential = sum(1 for a, b in zip(nbr, nbr[1:]) if b == a + 1)
    assert sequential > len(nbr) * 0.5


def test_graphs_identical_across_hash_seeds():
    """The dataset name seeds the graph through a process-stable value:
    two interpreters with different ``PYTHONHASHSEED`` build the same
    graph (the builtin ``hash()`` of a str would differ)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "import hashlib\n"
        "from repro.traces.gap import build_graph\n"
        "h = hashlib.sha256()\n"
        "for name in ('or', 'tw', 'ur'):\n"
        "    for arr in build_graph(name, num_vertices=256, avg_degree=4):\n"
        "        h.update(arr.tobytes())\n"
        "print(h.hexdigest())\n"
    )
    digests = set()
    for hash_seed in ("0", "21"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests
