"""Multi-core system assembly and the trace-driven run loop.

Builds the simulated machine of Table V — private L1D/L2 per core, a
shared LLC sized at 3 MB/core, banked DDR4 memory — and executes one
trace per core, interleaving cores in timestamp order so that shared
LLC and DRAM contention happen in (approximate) global time order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..traces.trace import Trace
from .cache import Cache
from .camat import CAMATMonitor
from .core_model import CoreConfig
from .dram import DRAMConfig, DRAMModel
from .hierarchy import CoreHierarchy
from .prefetch.base import NullPrefetcher, Prefetcher
from .prefetch.ipcp import IPCPPrefetcher
from .prefetch.next_line import NextLinePrefetcher
from .prefetch.streamer import StreamerPrefetcher
from .prefetch.stride import StridePrefetcher
from .replacement.base import ReplacementPolicy
from .replacement.lru import LRUPolicy
from .stats import CacheStats, LLCManagementStats


@dataclass
class SystemConfig:
    """Machine parameters; defaults follow Table V.

    The cache sizes are scaled by ``scale`` so unit tests and quick
    examples can run a geometrically similar but smaller machine
    (every level shrinks together, preserving the capacity ratios the
    policies react to).
    """

    num_cores: int = 4
    scale: float = 1.0
    l1_size: int = 48 * 1024
    l1_ways: int = 12
    l1_latency: float = 5.0
    l1_mshr: int = 16
    l2_size: int = 1280 * 1024
    l2_ways: int = 20
    l2_latency: float = 10.0
    l2_mshr: int = 48
    llc_size_per_core: int = 3 * 1024 * 1024
    llc_ways: int = 12
    llc_latency: float = 40.0
    llc_mshr_per_core: int = 64
    epoch_cycles: float = 100_000.0
    core: CoreConfig = field(default_factory=CoreConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)

    def _pow2_size(self, nominal: int, ways: int) -> int:
        """Largest size <= nominal*scale whose set count is a power of two."""
        from .address import BLOCK_SIZE

        target_sets = max(1, int(nominal * self.scale) // (BLOCK_SIZE * ways))
        sets = 1 << (target_sets.bit_length() - 1)
        return sets * BLOCK_SIZE * ways

    @property
    def l1_effective_size(self) -> int:
        return self._pow2_size(self.l1_size, self.l1_ways)

    @property
    def l2_effective_size(self) -> int:
        return self._pow2_size(self.l2_size, self.l2_ways)

    @property
    def llc_effective_size(self) -> int:
        return self._pow2_size(self.llc_size_per_core * self.num_cores, self.llc_ways)


# --- prefetcher configurations (Secs. VI, VII-E) -----------------------------

PrefetcherFactory = Callable[[], Prefetcher]


PREFETCH_CONFIGS: Dict[str, tuple[PrefetcherFactory, PrefetcherFactory]] = {
    # default: next-line at L1, stride at L2 (CRC-2 methodology)
    "nl_stride": (lambda: NextLinePrefetcher(degree=1), lambda: StridePrefetcher(degree=2)),
    # Fig. 3b / Fig. 14: stride at L1, streamer at L2 (Intel-like)
    "stride_streamer": (
        lambda: StridePrefetcher(degree=1),
        lambda: StreamerPrefetcher(degree=4),
    ),
    # Fig. 14: IPCP (DPC-3 winner), multi-level
    "ipcp": (lambda: IPCPPrefetcher(), lambda: IPCPPrefetcher()),
    # no prefetching
    "none": (lambda: NullPrefetcher(), lambda: NullPrefetcher()),
}


@dataclass
class CoreResult:
    """Post-warmup performance of one core."""

    instructions: int = 0
    cycles: float = 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class SystemResult:
    """Everything an experiment needs from one simulation run."""

    policy_name: str
    cores: List[CoreResult]
    llc_stats: CacheStats
    llc_mgmt: LLCManagementStats
    camat_summary: dict
    prefetcher_accuracy: float
    extra: dict = field(default_factory=dict)

    @property
    def ipcs(self) -> List[float]:
        return [c.ipc for c in self.cores]


class MultiCoreSystem:
    """A complete simulated machine running one policy."""

    def __init__(
        self,
        config: SystemConfig,
        llc_policy: Optional[ReplacementPolicy] = None,
        prefetch_config: str = "nl_stride",
        obs=None,
    ) -> None:
        self.config = config
        self.policy = llc_policy or LRUPolicy()
        #: optional repro.obs.ObsSession; None (the default) leaves the
        #: run loop and epoch machinery exactly as instrumented-free code
        self.obs = obs
        if prefetch_config not in PREFETCH_CONFIGS:
            raise KeyError(
                f"unknown prefetch config {prefetch_config!r}; "
                f"choose from {sorted(PREFETCH_CONFIGS)}"
            )
        self.prefetch_config = prefetch_config
        l1_factory, l2_factory = PREFETCH_CONFIGS[prefetch_config]

        self.dram = DRAMModel(config.dram)
        self.camat = CAMATMonitor(
            num_cores=config.num_cores,
            t_mem=config.dram.average_latency,
            epoch_cycles=config.epoch_cycles,
        )
        self.llc = Cache(
            name="LLC",
            size_bytes=config.llc_effective_size,
            ways=config.llc_ways,
            latency=config.llc_latency,
            mshr_entries=config.llc_mshr_per_core * config.num_cores,
            policy=self.policy,
            track_mgmt_stats=True,
        )
        self.camat.add_epoch_listener(self.policy.observe_epoch)
        # CHROME's agent needs the live obstruction flags at reward time.
        if hasattr(self.policy, "bind_camat"):
            self.policy.bind_camat(self.camat)
        if obs is not None:
            self._wire_obs(obs)

        self.cores: List[CoreHierarchy] = []
        for core_id in range(config.num_cores):
            l1 = Cache(
                name=f"L1D{core_id}",
                size_bytes=config.l1_effective_size,
                ways=config.l1_ways,
                latency=config.l1_latency,
                mshr_entries=config.l1_mshr,
            )
            l2 = Cache(
                name=f"L2_{core_id}",
                size_bytes=config.l2_effective_size,
                ways=config.l2_ways,
                latency=config.l2_latency,
                mshr_entries=config.l2_mshr,
            )
            self.cores.append(
                CoreHierarchy(
                    core_id=core_id,
                    l1=l1,
                    l2=l2,
                    llc=self.llc,
                    dram=self.dram,
                    camat=self.camat,
                    l1_prefetcher=l1_factory(),
                    l2_prefetcher=l2_factory(),
                    core_config=config.core,
                )
            )

    # --- observability -----------------------------------------------------------

    def _wire_obs(self, obs) -> None:
        """Register the telemetry taps (only ever called with obs on).

        Everything rides on the C-AMAT epoch-observer callback — the
        hot loop itself is untouched, so a disabled-obs run executes
        byte-identical code (the zero-overhead-when-off contract).
        Timestamps on the trace axis are virtual: 1 trace microsecond
        per 1000 simulated cycles.
        """
        timeline = obs.timeline
        tracer = obs.tracer
        camat = self.camat
        dram = self.dram
        llc = self.llc
        policy = self.policy
        reward_mix = getattr(policy, "reward_mix", None)
        qtable = getattr(policy, "qtable", None)
        epoch_cycles = camat.epoch_cycles
        tracer.name_thread(0, "epochs")
        for i in range(self.config.num_cores):
            tracer.name_thread(i + 1, f"core{i}")

        def observe(index, end_cycle, camats, flags):
            row = {
                "epoch": index,
                "end_cycle": end_cycle,
                "camat": camats,
                "obstructed": flags,
                "t_mem": camat.t_mem,
                "dram_row_hit_rate": dram.row_hit_rate,
                "llc_demand_hits": llc.stats.demand_hits,
                "llc_demand_misses": llc.stats.demand_misses,
            }
            if reward_mix is not None:
                row["reward_mix"] = reward_mix()
            if qtable is not None:
                row["q_lookups"] = qtable.lookups
                row["q_updates"] = qtable.updates
            timeline.record("sim_epoch", **row)
            ts = end_cycle / 1000.0
            dur = epoch_cycles / 1000.0
            obstructed_cores = sum(flags)
            tracer.complete(
                f"epoch {index}",
                ts - dur,
                dur,
                tid=0,
                args={"obstructed_cores": obstructed_cores},
            )
            tracer.counter(
                "camat", ts, {f"core{i}": c for i, c in enumerate(camats)}
            )
            for i, flag in enumerate(flags):
                if flag:
                    tracer.instant("llc_obstructed", ts, tid=i + 1)

        camat.add_epoch_observer(observe)

    def _record_obs_summary(self, obs, result: "SystemResult") -> None:
        """End-of-run summary row + registry gauges (obs-enabled only)."""
        camat = self.camat
        summary = {
            "policy": result.policy_name,
            "epochs_closed": camat.epochs_closed,
            "ipcs": result.ipcs,
            "camat_summary": result.camat_summary,
            "dram_row_hit_rate": self.dram.row_hit_rate,
            "prefetcher_accuracy": result.prefetcher_accuracy,
            "levels": [h.obs_level_stats() for h in self.cores],
        }
        telemetry = result.extra.get("policy_telemetry")
        if telemetry is not None:
            summary["policy_telemetry"] = telemetry
        qtable = getattr(self.policy, "qtable", None)
        if qtable is not None:
            summary["q_health"] = qtable.health_stats()
        obs.timeline.record("sim_summary", **summary)
        registry = obs.registry
        registry.counter("sim.epochs").inc(camat.epochs_closed)
        registry.counter("sim.llc_demand_hits").inc(self.llc.stats.demand_hits)
        registry.counter("sim.llc_demand_misses").inc(self.llc.stats.demand_misses)
        registry.gauge("sim.dram_row_hit_rate").set(self.dram.row_hit_rate)
        for i, fraction in enumerate(
            result.camat_summary.get("per_core_obstructed_epoch_fraction", [])
        ):
            registry.gauge(f"sim.core{i}.obstructed_epoch_fraction").set(fraction)
        if telemetry is not None:
            registry.set_gauges("sim.policy", telemetry)
        if qtable is not None:
            registry.set_gauges("sim.qtable", summary["q_health"])

    # --- running -----------------------------------------------------------------

    def run(
        self,
        traces: Sequence[Trace],
        max_accesses_per_core: Optional[int] = None,
        warmup_accesses: int = 0,
    ) -> SystemResult:
        """Execute one trace per core to completion (or the access cap).

        ``warmup_accesses`` accesses per core run before statistics are
        reset (learning state persists, mirroring the paper's 50M-warmup
        + 200M-measured methodology at reduced scale).
        """
        num_cores = self.config.num_cores
        if len(traces) != num_cores:
            raise ValueError(f"need {num_cores} traces, got {len(traces)}")
        # Chunked delivery: each core draws records from pre-materialized
        # lists (Trace.iter_chunks), so the per-record cost is a list
        # index, not a generator resumption.
        chunk_iters = [t.iter_chunks() for t in traces]
        buffers: List[Sequence] = [()] * num_cores
        positions = [0] * num_cores
        executed = [0] * num_cores
        warm_snapshots: List[Optional[tuple]] = [None] * num_cores
        warmed = warmup_accesses == 0
        if warmed:
            warm_snapshots = [c.core.snapshot() for c in self.cores]

        # Heap-based scheduler: the run loop repeatedly advances the core
        # with the smallest progress clock.  Only the just-executed core's
        # clock changes, so a (cycle, core_index) heap keeps selection at
        # O(log N) per access instead of an O(N) min() scan; the index
        # tie-break reproduces min()'s lowest-index-first choice exactly.
        cores = self.cores
        camat = self.camat
        maybe_close_epoch = camat.maybe_close_epoch
        # Epoch boundary cached locally: maybe_close_epoch's early exit
        # is exactly `now < epoch_end`, so the call is skipped inline.
        epoch_end = camat.epoch_end
        heappush = heapq.heappush
        heappop = heapq.heappop
        heap: List[Tuple[float, int]] = [
            (cores[i].core.current_cycle, i) for i in range(num_cores)
        ]
        heapq.heapify(heap)
        # Access cap as a plain comparison (inf = uncapped).
        cap = float("inf") if max_accesses_per_core is None else max_accesses_per_core

        while heap:
            _, idx = heappop(heap)
            hierarchy = cores[idx]
            buffer = buffers[idx]
            buffer_len = len(buffer)
            position = positions[idx]
            count = executed[idx]
            # Run-ahead inner loop: after executing, if this core's clock
            # is still strictly the earliest ((cycle, idx) < heap[0] —
            # exactly the tuple the old push-then-pop would return), keep
            # executing it without touching the heap.  With one core the
            # heap is empty and the whole run is heap-free.
            #
            # CoreHierarchy.execute is inlined here (advance +
            # complete_load around the demand walk; keep in sync with
            # hierarchy.py/core_model.py) with the core's instruction and
            # issue clocks hoisted into locals — they are written back
            # before every snapshot() and when the segment ends.
            core = hierarchy.core
            core_cfg = core.config
            width = core_cfg.width
            rob_size = core_cfg.rob_size
            hit_hidden = core_cfg.l1_hit_hidden
            out = core._outstanding
            instructions = core.instructions
            issue = core.issue_cycle
            demand_access = hierarchy._demand_access
            while True:
                if position >= buffer_len:
                    buffer = next(chunk_iters[idx], None)
                    while buffer is not None and not buffer:
                        buffer = next(chunk_iters[idx], None)
                    if buffer is not None:
                        buffers[idx] = buffer
                        buffer_len = len(buffer)
                        position = 0
                if buffer is None or count >= cap:
                    # Core retires: drop it from the heap (no re-push).
                    core.instructions = instructions
                    core.issue_cycle = issue
                    if not warmed and warm_snapshots[idx] is None:
                        # Trace ended before its warmup budget: snapshot
                        # here so the remaining cores can still close the
                        # warmup phase.
                        warm_snapshots[idx] = core.snapshot()
                        if all(s is not None for s in warm_snapshots):
                            self._reset_measured_stats()
                            warmed = True
                    break
                record = buffer[position]
                position += 1
                gap1 = record.gap + 1
                instructions += gap1
                issue += gap1 / width
                if out:
                    # ROB back-pressure (see CoreTimingModel.advance).
                    horizon = instructions - rob_size
                    while out and out[0][0] <= horizon:
                        _, ready = out.popleft()
                        if ready > issue:
                            core.stall_cycles += ready - issue
                            issue = ready
                is_write = record.is_write
                latency = demand_access(record.pc, record.address, is_write, issue)
                if not is_write and latency > hit_hidden:
                    ready = issue + latency
                    out.append((instructions, ready))
                    if ready > core.last_data_ready:
                        core.last_data_ready = ready
                count += 1
                if issue >= epoch_end:
                    maybe_close_epoch(issue)
                    epoch_end = camat.epoch_end
                if not warmed and count == warmup_accesses:
                    core.instructions = instructions
                    core.issue_cycle = issue
                    warm_snapshots[idx] = core.snapshot()
                    if all(s is not None for s in warm_snapshots):
                        self._reset_measured_stats()
                        warmed = True
                if heap and (issue, idx) > heap[0]:
                    core.instructions = instructions
                    core.issue_cycle = issue
                    heappush(heap, (issue, idx))
                    break
            positions[idx] = position
            executed[idx] = count

        return self._finish_run(warm_snapshots)

    def _finish_run(
        self, warm_snapshots: List[Optional[tuple]]
    ) -> SystemResult:
        """Assemble the :class:`SystemResult` of a finished run."""
        core_results = []
        for i, hierarchy in enumerate(self.cores):
            instr, cycles = hierarchy.core.snapshot()
            base = warm_snapshots[i] or (0, 0.0)
            core_results.append(
                CoreResult(
                    instructions=instr - base[0],
                    cycles=max(cycles - base[1], 1e-9),
                )
            )

        issued = sum(
            c.l1_prefetcher.stats.issued + c.l2_prefetcher.stats.issued
            for c in self.cores
        )
        useful = sum(
            c.l1_prefetcher.stats.useful + c.l2_prefetcher.stats.useful
            for c in self.cores
        )
        extra = {}
        if hasattr(self.policy, "telemetry"):
            extra["policy_telemetry"] = self.policy.telemetry()
        result = SystemResult(
            policy_name=self.policy.name,
            cores=core_results,
            llc_stats=self.llc.stats,
            llc_mgmt=self.llc.mgmt,
            camat_summary=self.camat.summary(),
            prefetcher_accuracy=(useful / issued if issued else 0.0),
            extra=extra,
        )
        if self.obs is not None:
            self._record_obs_summary(self.obs, result)
        return result

    def _reset_measured_stats(self) -> None:
        """Zero the measured-region statistics; learning state persists."""
        self.llc.stats = CacheStats(name="LLC")
        self.llc.mgmt = LLCManagementStats()
        # Prefetched lines resident at the measurement boundary can still
        # produce measured hits; count them as (already paid) fills so
        # EPHR stays a ratio of hits to inserted prefetches.
        resident_prefetches = sum(
            1
            for s in range(self.llc.num_sets)
            for block in self.llc.blocks_in_set(s)
            if block.valid and block.is_prefetch
        )
        self.llc.mgmt.prefetch_fills = resident_prefetches
        for hierarchy in self.cores:
            hierarchy.l1.stats = CacheStats(name=hierarchy.l1.name)
            hierarchy.l2.stats = CacheStats(name=hierarchy.l2.name)
