"""Per-core cache hierarchy walk: L1D → L2 → shared LLC → DRAM.

Composes the pieces of :mod:`repro.sim` into the memory system of
Table V: private L1D and L2 with fixed LRU, a shared LLC running the
policy under study, hardware prefetchers at L1 and L2, MSHR-modelled
miss overlap, dirty-writeback propagation, and C-AMAT accounting for
every access that reaches the LLC.

Hot-path note: every leg of the walk reuses a per-level scratch
:class:`AccessInfo` (see its lifecycle contract) instead of
constructing a fresh dataclass per level — a demand miss used to
allocate five or more.  Each scratch instance is private to exactly
one call frame of the walk, so no reset can clobber a live descriptor.
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, Optional, Tuple

from ..traces.trace import MemoryAccess
from .access import AccessInfo
from .cache import Cache
from .camat import CAMATMonitor
from .core_model import CoreConfig, CoreTimingModel
from .dram import DRAMModel
from .prefetch.base import NullPrefetcher, Prefetcher


class CoreHierarchy:
    """One core's private levels plus references to the shared system."""

    __slots__ = (
        "core_id",
        "l1",
        "l2",
        "llc",
        "dram",
        "camat",
        "l1_prefetcher",
        "l2_prefetcher",
        "core",
        "_camat_core",
        "_pf_owner",
        "_pf_owner_cap",
        "_pf_filter",
        "_pf_filter_cap",
        "prefetch_drops",
        "prefetch_filtered",
        "_demand_info",
        "_wb_l2_info",
        "_wb_llc_info",
        "_pf_info",
        "_pf_l2_info",
        "_l1_fast",
        "_l2_fast",
    )

    def __init__(
        self,
        core_id: int,
        l1: Cache,
        l2: Cache,
        llc: Cache,
        dram: DRAMModel,
        camat: CAMATMonitor,
        l1_prefetcher: Optional[Prefetcher] = None,
        l2_prefetcher: Optional[Prefetcher] = None,
        core_config: Optional[CoreConfig] = None,
    ) -> None:
        self.core_id = core_id
        self.l1 = l1
        self.l2 = l2
        self.llc = llc
        self.dram = dram
        self.camat = camat
        self.l1_prefetcher = l1_prefetcher or NullPrefetcher()
        self.l2_prefetcher = l2_prefetcher or NullPrefetcher()
        self.core = CoreTimingModel(core_config)
        # Direct reference to this core's C-AMAT accumulator (the state
        # objects are created once per monitor and never replaced).
        self._camat_core = camat.cores[core_id]
        # block address -> prefetcher that brought it in (usefulness credit).
        # Plain dicts preserve insertion order; "move to end" is pop +
        # re-insert and LRU eviction removes the first key — cheaper than
        # OrderedDict on this path.
        self._pf_owner: Dict[int, Prefetcher] = {}
        self._pf_owner_cap = 1 << 14
        # Prefetch filter: recently demanded or prefetched blocks are not
        # re-proposed (suppresses late and duplicate prefetches, which a
        # real prefetch filter drops before they waste bandwidth).
        self._pf_filter: Dict[int, None] = {}
        self._pf_filter_cap = 2048
        self.prefetch_drops = 0
        self.prefetch_filtered = 0
        # Scratch AccessInfo per walk leg (allocation-free access path).
        # Each is reset at the top of its owning method and never escapes
        # the policy hooks it is passed to.
        self._demand_info = AccessInfo(0, 0, 0, core_id)
        self._wb_l2_info = AccessInfo(0, 0, 0, core_id)
        self._wb_llc_info = AccessInfo(0, 0, 0, core_id)
        self._pf_info = AccessInfo(0, 0, 0, core_id)
        self._pf_l2_info = AccessInfo(0, 0, 0, core_id)
        # The default build runs the private levels as exact true-LRU
        # caches without mgmt tracking; these flags (checked once here)
        # gate the inlined access/fill fast paths below.  Custom L1/L2
        # policies or mgmt-tracked levels take the generic paths.
        self._l1_fast = l1._lru_recency is not None and l1.mgmt is None
        self._l2_fast = l2._lru_recency is not None and l2.mgmt is None

    #: a prefetch that would queue behind this much DRAM backlog is shed
    PREFETCH_BACKLOG_LIMIT = 1200.0

    # --- main entry point ---------------------------------------------------

    def execute(self, access: MemoryAccess) -> float:
        """Run one trace record through the core + memory system.

        Returns the total load-to-use latency charged (0 for stores and
        fully hidden L1 hits — informational only; timing effects are
        applied to the core model internally).
        """
        # Inlined CoreTimingModel.advance + complete_load (hot path: two
        # call frames per record; keep in sync with core_model.py).
        core = self.core
        cfg = core.config
        gap1 = access.gap + 1
        core.instructions = instructions = core.instructions + gap1
        core.issue_cycle = issue = core.issue_cycle + gap1 / cfg.width
        out = core._outstanding
        if out:
            horizon = instructions - cfg.rob_size
            while out and out[0][0] <= horizon:
                _, ready = out.popleft()
                if ready > issue:
                    core.stall_cycles += ready - issue
                    core.issue_cycle = issue = ready
        is_write = access.is_write
        latency = self._demand_access(access.pc, access.address, is_write, issue)
        if not is_write and latency > cfg.l1_hit_hidden:
            ready = issue + latency
            out.append((instructions, ready))
            if ready > core.last_data_ready:
                core.last_data_ready = ready
        return latency

    # --- demand path ------------------------------------------------------------

    def _demand_access(
        self, pc: int, address: int, is_write: bool, issue: float
    ) -> float:
        """L1 + L2 legs of the demand walk, fused into one frame.

        The L2 leg reuses the demand descriptor with ``is_write``
        cleared (the L1 absorbs the store, so everything below sees a
        clean access); the saved ``is_write`` local still drives the L1
        fill's dirtiness.  MSHR lookup/allocate fast paths are inlined:
        the lookup at cycle ``issue`` already expired every entry due by
        then, so a subsequent allocate at the same cycle can insert
        directly whenever the file has room (see mshr.py).
        """
        block = address >> 6
        # Inlined _filter_remember (hottest caller).
        pf_filter = self._pf_filter
        pf_filter.pop(block, None)
        pf_filter[block] = None
        if len(pf_filter) > self._pf_filter_cap:
            del pf_filter[next(iter(pf_filter))]
        l1 = self.l1
        info = None
        if self._l1_fast:
            # Inlined Cache.access, demand/true-LRU/no-mgmt case (keep
            # in sync with cache.py).  The hit path needs no AccessInfo
            # at all, so the scratch reset is deferred to the miss walk.
            s1 = block & l1._set_mask
            way1 = l1._tag_maps[s1].get(block >> l1._set_shift)
            if way1 is not None:
                l1.stats.demand_hits += 1
                b1 = l1._blocks[s1][way1]
                touch = l1._touch + 1
                l1._touch = touch
                b1.last_touch = touch
                if is_write:
                    b1.dirty = True
                if not b1.reused:
                    b1.reused = True
                if b1.is_prefetch:
                    b1.is_prefetch = False
                    self._credit_prefetch(block)
                order = l1._lru_recency[s1]
                order.pop(way1, None)
                order[way1] = None
                l1_hit = True
            else:
                l1.stats.demand_misses += 1
                l1_hit = False
        else:
            info = self._demand_info.reset_demand(pc, address, block, is_write, issue)
            l1_hit, pf_hit = l1.access(info)
            if pf_hit:
                self._credit_prefetch(block)
        l1_prefetches = self.l1_prefetcher.on_access(pc, address, l1_hit, issue)
        if l1_hit:
            latency = l1.latency
        else:
            # Merge into an in-flight miss only if the line is genuinely
            # still absent below (instant-fill means an "in-flight" line
            # may already sit in L2 after an L1 eviction).
            mshr = l1.mshr
            heap_ = mshr._heap
            if heap_ and heap_[0][0] <= issue:
                inflight = mshr.lookup(block, issue)
            else:
                inflight = mshr._inflight.get(block)
            l2 = self.l2
            s2 = block & l2._set_mask
            tag2 = block >> l2._set_shift
            map2 = l2._tag_maps[s2]
            if inflight is not None and tag2 not in map2:
                mshr.merges += 1
                miss_wait = inflight - issue
                latency = miss_wait if miss_wait > l1.latency else l1.latency
            else:
                if inflight is not None:
                    mshr.remove(block)  # stale: line resident below
                # --- L2 leg (fused; clean descriptor from here down) ---
                if info is None:
                    info = self._demand_info.reset_demand(
                        pc, address, block, False, issue
                    )
                else:
                    info.is_write = False
                if self._l2_fast:
                    # Inlined Cache.access again (clean demand).
                    way2 = map2.get(tag2)
                    if way2 is not None:
                        l2.stats.demand_hits += 1
                        b2 = l2._blocks[s2][way2]
                        touch = l2._touch + 1
                        l2._touch = touch
                        b2.last_touch = touch
                        if not b2.reused:
                            b2.reused = True
                        if b2.is_prefetch:
                            b2.is_prefetch = False
                            self._credit_prefetch(block)
                        order = l2._lru_recency[s2]
                        order.pop(way2, None)
                        order[way2] = None
                        l2_hit = True
                    else:
                        l2.stats.demand_misses += 1
                        l2_hit = False
                else:
                    l2_hit, pf_hit2 = l2.access(info)
                    if pf_hit2:
                        self._credit_prefetch(block)
                l2_prefetches = self.l2_prefetcher.on_access(pc, address, l2_hit, issue)
                if l2_hit:
                    below = l2.latency
                else:
                    mshr2 = l2.mshr
                    heap2 = mshr2._heap
                    if heap2 and heap2[0][0] <= issue:
                        inflight2 = mshr2.lookup(block, issue)
                    else:
                        inflight2 = mshr2._inflight.get(block)
                    llc = self.llc
                    if inflight2 is not None and (
                        block >> llc._set_shift
                    ) not in llc._tag_maps[block & llc._set_mask]:
                        miss_wait2 = inflight2 - issue
                        below = miss_wait2 if miss_wait2 > l2.latency else l2.latency
                    else:
                        if inflight2 is not None:
                            mshr2.remove(block)
                        llc_issue = issue + l2.latency
                        llc_latency = self._llc_access(info, llc_issue)
                        completion2 = llc_issue + llc_latency
                        inflight_map2 = mshr2._inflight
                        if len(inflight_map2) < mshr2.num_entries:
                            inflight_map2[block] = completion2
                            heappush(heap2, (completion2, block))
                        else:
                            completion2 = mshr2.allocate(block, issue, completion2)
                        if self._l2_fast:
                            # Inlined _fill_l2 (info.cycle == issue here).
                            wb2 = l2.fill_lru(info)
                            if wb2 is not None:
                                l2.stats.writebacks_out += 1
                                self._writeback_llc(wb2, issue)
                        else:
                            self._fill_l2(info)
                        below = completion2 - issue
                if l2_prefetches:
                    for target in l2_prefetches:
                        if target < 0:
                            continue
                        if (target >> 6) in pf_filter:
                            self.prefetch_filtered += 1
                            continue
                        self._issue_prefetch(
                            "l2", self.l2_prefetcher, pc, target, issue
                        )
                # --- back at L1: register the miss, install the line ---
                completion = issue + l1.latency + below
                inflight_map = mshr._inflight
                if len(inflight_map) < mshr.num_entries:
                    inflight_map[block] = completion
                    heappush(heap_, (completion, block))
                else:
                    completion = mshr.allocate(block, issue, completion)
                if self._l1_fast:
                    wb = l1.fill_lru(info, is_write)
                    if wb is not None:
                        l1.stats.writebacks_out += 1
                        self._writeback(l2, wb, issue)
                else:
                    victim = l1.fill(info, dirty=is_write)
                    if victim is not None and victim[1]:
                        l1.stats.writebacks_out += 1
                        self._writeback(l2, victim[0], issue)
                latency = completion - issue
        if l1_prefetches:
            for target in l1_prefetches:
                # Precheck owns _issue_prefetch's first two exits so
                # rejected targets never pay the call.
                if target < 0:
                    continue
                if (target >> 6) in pf_filter:
                    self.prefetch_filtered += 1
                    continue
                self._issue_prefetch("l1", self.l1_prefetcher, pc, target, issue)
        return latency

    def _llc_access(self, info: AccessInfo, issue: float) -> float:
        """Shared-LLC leg; returns latency from LLC onward and records
        the access interval for C-AMAT.

        ``info`` is the upper level's descriptor passed straight
        through: no LLC policy or mgmt hook reads ``info.cycle`` — the
        only field a fresh LLC-issued reset would change — and the
        callers' L2 fills rely on ``cycle`` staying at the upper
        level's issue point, so no scratch copy is needed.
        """
        block = info.block_addr
        llc = self.llc
        llc_hit, pf_hit = llc.access(info)
        if pf_hit:
            self._credit_prefetch(block)
        if llc_hit:
            service = llc.latency
        else:
            mshr = llc.mshr
            heap_ = mshr._heap
            if heap_ and heap_[0][0] <= issue:
                inflight = mshr.lookup(block, issue)
            else:
                inflight = mshr._inflight.get(block)
            if inflight is not None:
                miss_wait = inflight - issue
                service = miss_wait if miss_wait > llc.latency else llc.latency
            else:
                llc_latency = llc.latency
                dram_latency = self.dram.access(block, issue + llc_latency)
                completion = issue + llc_latency + dram_latency
                inflight_map = mshr._inflight
                if len(inflight_map) < mshr.num_entries:
                    # lookup() above already expired entries due at
                    # ``issue``; with room this is allocate()'s fast path.
                    inflight_map[block] = completion
                    heappush(heap_, (completion, block))
                else:
                    completion = mshr.allocate(block, issue, completion)
                service = completion - issue
                # Inlined Cache.decide_bypass: ``info`` is never a
                # writeback here (those route via _writeback_llc) and
                # llc.access() already set info.set_index for this block.
                if llc.policy.should_bypass(info):
                    mgmt = llc.mgmt
                    if mgmt is not None:
                        mgmt.on_bypass(block)
                else:
                    victim = llc.fill(info)
                    # Inlined _drain_llc_victim.
                    if victim is not None and victim[1]:
                        llc.stats.writebacks_out += 1
                        self.dram.access(victim[0], issue, is_write=True)
        # Inlined CoreCAMATState.record (keep in sync with camat.py).
        cam = self._camat_core
        end = issue + service
        active = cam.active_until
        if issue >= active:
            added = service
            cam.active_until = end
        elif end > active:
            added = end - active
            cam.active_until = end
        else:
            added = 0.0
        cam.epoch_active_cycles += added
        cam.total_active_cycles += added
        cam.epoch_accesses += 1
        cam.total_accesses += 1
        return service

    # --- fills and writebacks ------------------------------------------------

    def _fill_l1(self, info: AccessInfo) -> None:
        # ``info`` is passed straight through: Cache.fill only reads
        # identity fields (and rewrites set_index), so a scratch copy
        # would be field-identical anyway.
        l1 = self.l1
        if self._l1_fast:
            wb = l1.fill_lru(info, info.is_write)
            if wb is not None:
                l1.stats.writebacks_out += 1
                self._writeback(self.l2, wb, info.cycle)
            return
        victim = l1.fill(info, dirty=info.is_write)
        if victim is not None and victim[1]:
            l1.stats.writebacks_out += 1
            self._writeback(self.l2, victim[0], info.cycle)

    def _fill_l2(self, info: AccessInfo) -> None:
        # Both callers pass is_write=False descriptors (the L1 absorbs
        # stores), so the L2 fill is clean without copying/clearing.
        l2 = self.l2
        if self._l2_fast:
            wb = l2.fill_lru(info)
            if wb is not None:
                l2.stats.writebacks_out += 1
                self._writeback_llc(wb, info.cycle)
            return
        victim = l2.fill(info)
        if victim is not None and victim[1]:
            l2.stats.writebacks_out += 1
            self._writeback_llc(victim[0], info.cycle)

    def _writeback(self, cache: Cache, block_addr: int, cycle: float) -> None:
        """Dirty eviction from L1 lands in L2 (allocate on writeback)."""
        info = self._wb_l2_info.reset_writeback(block_addr, cycle)
        hit, _ = cache.access(info)
        if not hit:
            if self._l2_fast and cache is self.l2:
                wb = cache.fill_lru(info, True)
                if wb is not None:
                    cache.stats.writebacks_out += 1
                    self._writeback_llc(wb, cycle)
                return
            victim = cache.fill(info, dirty=True)
            if victim is not None and victim[1]:
                cache.stats.writebacks_out += 1
                self._writeback_llc(victim[0], cycle)

    def _writeback_llc(self, block_addr: int, cycle: float) -> None:
        """Dirty eviction from L2 lands in the shared LLC."""
        info = self._wb_llc_info.reset_writeback(block_addr, cycle)
        hit, _ = self.llc.access(info)
        if not hit:
            victim = self.llc.fill(info, dirty=True)
            self._drain_llc_victim(victim, cycle)

    def _drain_llc_victim(
        self, victim: Optional[Tuple[int, bool]], cycle: float
    ) -> None:
        if victim is not None and victim[1]:
            self.llc.stats.writebacks_out += 1
            self.dram.access(victim[0], cycle, is_write=True)

    # --- prefetch path -----------------------------------------------------------

    def _issue_prefetch(
        self, level: str, owner: Prefetcher, pc: int, address: int, issue: float
    ) -> None:
        """Inject a prefetch at ``level``; fills propagate upward to the
        issuing level.  LLC insertion remains subject to the LLC
        policy's bypass decision (holistic management, Sec. IV-B).

        Callers precheck negative targets and filter membership, so
        this starts at the filter-remember step.
        """
        block = address >> 6
        # Inlined _filter_remember.
        pf_filter = self._pf_filter
        pf_filter.pop(block, None)
        pf_filter[block] = None
        if len(pf_filter) > self._pf_filter_cap:
            del pf_filter[next(iter(pf_filter))]
        l1 = self.l1
        if level == "l1" and (block >> l1._set_shift) in l1._tag_maps[
            block & l1._set_mask
        ]:
            return
        l2 = self.l2
        hit_below = (block >> l2._set_shift) in l2._tag_maps[block & l2._set_mask]
        llc = self.llc
        if not hit_below and (block >> llc._set_shift) not in llc._tag_maps[
            block & llc._set_mask
        ]:
            # The line must come from DRAM: shed the prefetch when the
            # memory system is saturated (lowest-priority traffic).
            mshr = llc.mshr
            mshr.lookup(block, issue)  # expire stale entries
            if (
                len(mshr._inflight) >= mshr.num_entries
                or self.dram.backlog(block, issue) > self.PREFETCH_BACKLOG_LIMIT
            ):
                self.prefetch_drops += 1
                return
        info = self._pf_info.reset_prefetch(pc, address, block, issue)
        if not hit_below:
            # L2 miss: consult the shared LLC (prefetch-typed access).
            llc_latency = self._llc_access(info, issue + l2.latency)
            del llc_latency  # prefetch latency is off the critical path
            if self._l2_fast:
                # Inlined _fill_l2 (info.cycle == issue here).
                wb2 = l2.fill_lru(info)
                if wb2 is not None:
                    l2.stats.writebacks_out += 1
                    self._writeback_llc(wb2, issue)
            else:
                self._fill_l2(info)
        else:
            # Touch L2 so its stats/recency see the prefetch.
            l2_info = self._pf_l2_info.reset_prefetch(pc, address, block, issue)
            l2.access(l2_info)
        if level == "l1":
            self._fill_l1(info)
        self._remember_prefetch(block, owner)

    def _filter_remember(self, block: int) -> None:
        pf_filter = self._pf_filter
        pf_filter.pop(block, None)
        pf_filter[block] = None
        if len(pf_filter) > self._pf_filter_cap:
            del pf_filter[next(iter(pf_filter))]

    def _remember_prefetch(self, block: int, owner: Prefetcher) -> None:
        owners = self._pf_owner
        owners.pop(block, None)
        owners[block] = owner
        if len(owners) > self._pf_owner_cap:
            del owners[next(iter(owners))]

    def _credit_prefetch(self, block: int) -> None:
        """Credit the prefetcher that brought ``block`` in (called only on
        a block's first demand hit)."""
        owner = self._pf_owner.pop(block, None)
        if owner is not None:
            owner.credit_useful()

    # --- observability -----------------------------------------------------------

    def obs_level_stats(self) -> dict:
        """Cumulative private-level counters for telemetry snapshots.

        Read-only: the obs layer samples this at epoch/run boundaries,
        so the demand walk itself carries no instrumentation (the
        zero-overhead-when-off contract of :mod:`repro.obs`).
        """
        l1, l2 = self.l1.stats, self.l2.stats
        return {
            "core": self.core_id,
            "l1_demand_hits": l1.demand_hits,
            "l1_demand_misses": l1.demand_misses,
            "l2_demand_hits": l2.demand_hits,
            "l2_demand_misses": l2.demand_misses,
            "l1_mshr_merges": self.l1.mshr.merges,
            "l2_mshr_merges": self.l2.mshr.merges,
            "prefetch_drops": self.prefetch_drops,
            "prefetch_filtered": self.prefetch_filtered,
            "prefetch_issued": (
                self.l1_prefetcher.stats.issued + self.l2_prefetcher.stats.issued
            ),
            "prefetch_useful": (
                self.l1_prefetcher.stats.useful + self.l2_prefetcher.stats.useful
            ),
        }
