"""GAP benchmark suite workloads (Table VI): real graph kernels on
synthetic graphs.

The paper evaluates Betweenness Centrality (bc), Breadth-First Search
(bfs), Connected Components (cc), PageRank (pr), and Single-Source
Shortest Paths (sssp) on the orkut, twitter, and urand datasets.  The
datasets are multi-GB downloads, so we substitute synthetic graphs with
matching *degree structure* (orkut/twitter: power-law with different
skew; urand: uniform random) and run the **actual kernels** over a CSR
layout, recording the true address stream of the offsets / neighbors /
property arrays.  The resulting traces exhibit GAP's signature memory
behaviour: sequential offset walks, bursty neighbor-array streams, and
scattered property-array accesses — precisely the irregular pattern the
paper uses these suites to stress (and which CHROME never saw during
hyper-parameter tuning; Sec. VII-D).
"""

from __future__ import annotations

import random
import zlib
from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np

from .synthetic import make_trace
from .trace import MemoryAccess, Trace

# Array base addresses (disjoint 1 GB regions).
OFFSETS_BASE = 0x40_0000_0000
NEIGHBORS_BASE = 0x80_0000_0000
PROP_BASE = 0xC0_0000_0000
PROP2_BASE = 0x100_0000_0000
WEIGHTS_BASE = 0x140_0000_0000

ELEM = 8  # bytes per array element

# Fake PCs for the kernels' access sites.
PC_OFFSETS = 0x500000
PC_NEIGHBORS = 0x500010
PC_PROP_READ = 0x500020
PC_PROP_WRITE = 0x500030
PC_PROP2 = 0x500040
PC_WEIGHTS = 0x500050

DATASETS = ("or", "tw", "ur")
KERNELS = ("bc", "bfs", "cc", "pr", "sssp")

GAP_TRACES: Tuple[str, ...] = tuple(
    f"{kernel}-{dataset}" for kernel in KERNELS for dataset in DATASETS
)

#: vertex count at full machine scale (12 MB LLC); shrinks with ``scale``.
#: Sized so the per-core property arrays land between the private L2 and
#: the per-core LLC share — the regime where LLC retention decisions
#: matter for graph kernels (neighbor arrays always stream).
FULL_SCALE_VERTICES = 262_144
DEFAULT_VERTICES = 8192
DEFAULT_AVG_DEGREE = 12


@lru_cache(maxsize=16)
def build_graph(
    dataset: str,
    num_vertices: int = DEFAULT_VERTICES,
    avg_degree: int = DEFAULT_AVG_DEGREE,
    seed: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build a CSR graph (offsets, neighbors) for a named dataset style.

    * ``or`` (orkut-like): power-law degree, moderate skew;
    * ``tw`` (twitter-like): power-law, heavy skew (celebrity hubs);
    * ``ur`` (urand): uniform random endpoints.
    """
    if dataset not in DATASETS:
        raise KeyError(f"unknown dataset {dataset!r}; choose from {DATASETS}")
    # crc32, not the builtin hash(): str hashes are salted per process.
    rng = np.random.default_rng(seed + zlib.crc32(dataset.encode()) % 1000)
    num_edges = num_vertices * avg_degree
    if dataset == "ur":
        src = rng.integers(0, num_vertices, num_edges)
        dst = rng.integers(0, num_vertices, num_edges)
    else:
        skew = 1.6 if dataset == "tw" else 2.0
        # Power-law endpoint popularity via Zipf over a random vertex rank.
        perm = rng.permutation(num_vertices)

        def zipf_vertices(n: int) -> np.ndarray:
            raw = rng.zipf(skew, n)
            return perm[np.minimum(raw - 1, num_vertices - 1)]

        src = zipf_vertices(num_edges)
        dst = zipf_vertices(num_edges)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    np.cumsum(offsets, out=offsets)
    return offsets, dst.astype(np.int64)


def _acc(pc: int, base: int, index: int, write: bool = False, gap: int = 2) -> MemoryAccess:
    return MemoryAccess(pc, base + index * ELEM, write, gap)


def _edge_accesses(
    offsets: np.ndarray, neighbors: np.ndarray, u: int
) -> Iterator[Tuple[int, MemoryAccess]]:
    """Yield (neighbor, access) pairs for scanning vertex u's edge list."""
    start, end = int(offsets[u]), int(offsets[u + 1])
    for i in range(start, end):
        v = int(neighbors[i])
        yield v, _acc(PC_NEIGHBORS, NEIGHBORS_BASE, i)


# --- kernels (each an infinite generator: the algorithm restarts forever) ---


def bfs_kernel(
    offsets: np.ndarray, neighbors: np.ndarray, seed: int = 0
) -> Iterator[MemoryAccess]:
    """Breadth-first search from random sources, top-down."""
    rng = random.Random(seed)
    n = len(offsets) - 1
    while True:
        parent = [-1] * n
        source = rng.randrange(n)
        parent[source] = source
        frontier: List[int] = [source]
        while frontier:
            next_frontier: List[int] = []
            for u in frontier:
                yield _acc(PC_OFFSETS, OFFSETS_BASE, u)
                for v, access in _edge_accesses(offsets, neighbors, u):
                    yield access
                    yield _acc(PC_PROP_READ, PROP_BASE, v)
                    if parent[v] < 0:
                        parent[v] = u
                        yield _acc(PC_PROP_WRITE, PROP_BASE, v, write=True)
                        next_frontier.append(v)
            frontier = next_frontier


def pr_kernel(
    offsets: np.ndarray, neighbors: np.ndarray, seed: int = 0
) -> Iterator[MemoryAccess]:
    """PageRank power iterations (pull direction)."""
    n = len(offsets) - 1
    while True:
        for u in range(n):
            yield _acc(PC_OFFSETS, OFFSETS_BASE, u)
            for v, access in _edge_accesses(offsets, neighbors, u):
                yield access
                yield _acc(PC_PROP_READ, PROP_BASE, v)
            yield _acc(PC_PROP2, PROP2_BASE, u, write=True)


def cc_kernel(
    offsets: np.ndarray, neighbors: np.ndarray, seed: int = 0
) -> Iterator[MemoryAccess]:
    """Connected components by label propagation."""
    n = len(offsets) - 1
    while True:
        labels = list(range(n))
        changed = True
        rounds = 0
        while changed and rounds < 32:
            changed = False
            rounds += 1
            for u in range(n):
                yield _acc(PC_OFFSETS, OFFSETS_BASE, u)
                yield _acc(PC_PROP_READ, PROP_BASE, u)
                best = labels[u]
                for v, access in _edge_accesses(offsets, neighbors, u):
                    yield access
                    yield _acc(PC_PROP_READ, PROP_BASE, v)
                    if labels[v] < best:
                        best = labels[v]
                if best < labels[u]:
                    labels[u] = best
                    changed = True
                    yield _acc(PC_PROP_WRITE, PROP_BASE, u, write=True)


def sssp_kernel(
    offsets: np.ndarray, neighbors: np.ndarray, seed: int = 0
) -> Iterator[MemoryAccess]:
    """Single-source shortest paths: frontier-based Bellman-Ford."""
    rng = random.Random(seed)
    n = len(offsets) - 1
    inf = float("inf")
    while True:
        dist = [inf] * n
        source = rng.randrange(n)
        dist[source] = 0.0
        frontier: List[int] = [source]
        rounds = 0
        while frontier and rounds < 64:
            rounds += 1
            next_frontier: List[int] = []
            for u in frontier:
                yield _acc(PC_OFFSETS, OFFSETS_BASE, u)
                base_dist = dist[u]
                start = int(offsets[u])
                for k, (v, access) in enumerate(_edge_accesses(offsets, neighbors, u)):
                    yield access
                    yield _acc(PC_WEIGHTS, WEIGHTS_BASE, start + k)
                    yield _acc(PC_PROP_READ, PROP_BASE, v)
                    weight = 1.0 + ((u * 2654435761 + v) & 7)
                    if base_dist + weight < dist[v]:
                        dist[v] = base_dist + weight
                        yield _acc(PC_PROP_WRITE, PROP_BASE, v, write=True)
                        next_frontier.append(v)
            frontier = next_frontier


def bc_kernel(
    offsets: np.ndarray, neighbors: np.ndarray, seed: int = 0
) -> Iterator[MemoryAccess]:
    """Betweenness centrality: BFS forward pass + dependency back-sweep."""
    rng = random.Random(seed)
    n = len(offsets) - 1
    while True:
        depth = [-1] * n
        source = rng.randrange(n)
        depth[source] = 0
        order: List[int] = [source]
        frontier = [source]
        while frontier:
            next_frontier: List[int] = []
            for u in frontier:
                yield _acc(PC_OFFSETS, OFFSETS_BASE, u)
                for v, access in _edge_accesses(offsets, neighbors, u):
                    yield access
                    yield _acc(PC_PROP_READ, PROP_BASE, v)
                    if depth[v] < 0:
                        depth[v] = depth[u] + 1
                        yield _acc(PC_PROP_WRITE, PROP_BASE, v, write=True)
                        next_frontier.append(v)
                        order.append(v)
            frontier = next_frontier
        # Reverse sweep: accumulate dependencies toward the source.
        for u in reversed(order):
            yield _acc(PC_OFFSETS, OFFSETS_BASE, u)
            for v, access in _edge_accesses(offsets, neighbors, u):
                yield access
                yield _acc(PC_PROP2, PROP2_BASE, v)
            yield _acc(PC_PROP2, PROP2_BASE, u, write=True)


_KERNEL_FNS = {
    "bfs": bfs_kernel,
    "pr": pr_kernel,
    "cc": cc_kernel,
    "sssp": sssp_kernel,
    "bc": bc_kernel,
}


def build_gap_trace(
    name: str,
    num_accesses: int,
    seed: int = 0,
    num_vertices: int | None = None,
    avg_degree: int = DEFAULT_AVG_DEGREE,
    scale: float = 1.0,
) -> Trace:
    """Build a finite GAP trace, e.g. ``bfs-ur`` or ``pr-tw``.

    ``scale`` sizes the graph relative to the paper's full machine
    (``FULL_SCALE_VERTICES`` vertices at scale 1.0); an explicit
    ``num_vertices`` overrides it.
    """
    try:
        kernel_name, dataset = name.split("-")
        kernel = _KERNEL_FNS[kernel_name]
    except (ValueError, KeyError):
        raise KeyError(
            f"unknown GAP trace {name!r}; available: {GAP_TRACES}"
        ) from None
    if num_vertices is None:
        num_vertices = max(1024, int(FULL_SCALE_VERTICES * scale))
    offsets, neighbors = build_graph(dataset, num_vertices, avg_degree)
    return make_trace(
        name,
        lambda: kernel(offsets, neighbors, seed=seed),
        num_accesses,
        metadata={"suite": "gap", "kernel": kernel_name, "dataset": dataset},
    )
