"""Access descriptor passed to replacement policies and prefetchers."""

from __future__ import annotations

from dataclasses import dataclass

DEMAND = "demand"
PREFETCH = "prefetch"
WRITEBACK = "writeback"


@dataclass(slots=True)
class AccessInfo:
    """Everything a cache-management policy may observe about an access.

    This is the information CHROME's state vector is built from
    (Table I): the PC of the triggering instruction, the full byte
    address (hence page number / offset / deltas), the issuing core,
    and whether the access is a demand, a prefetch, or a writeback.
    ``hit`` is filled in by the cache before policy hooks run.

    ``is_demand`` / ``is_prefetch`` / ``is_writeback`` are plain
    attributes kept in sync with ``type`` (derived at construction and
    by the ``reset_*`` methods) so the hot path never re-compares the
    type string.  Policies may read either form.

    Lifecycle contract: the hierarchy *reuses* per-level scratch
    instances, so an ``AccessInfo`` is only valid for the duration of
    the policy hook it is passed to.  Policies must copy out any field
    they need later (they all do — states, signatures and block
    addresses are extracted immediately).
    """

    pc: int
    address: int
    block_addr: int
    core: int
    type: str = DEMAND  # DEMAND / PREFETCH / WRITEBACK
    is_write: bool = False
    cycle: float = 0.0
    hit: bool = False
    set_index: int = 0
    # derived from ``type``; overwritten in __post_init__ so they cannot
    # disagree with it no matter what a caller passes.
    is_demand: bool = True
    is_prefetch: bool = False
    is_writeback: bool = False

    def __post_init__(self) -> None:
        t = self.type
        self.is_demand = t == DEMAND
        self.is_prefetch = t == PREFETCH
        self.is_writeback = t == WRITEBACK

    # --- scratch-reuse API (hot path) ----------------------------------------
    #
    # One specialized reset per access type keeps the derived booleans
    # constant-folded instead of re-deriving them from the string.

    def reset_demand(
        self, pc: int, address: int, block_addr: int, is_write: bool, cycle: float
    ) -> "AccessInfo":
        self.pc = pc
        self.address = address
        self.block_addr = block_addr
        self.type = DEMAND
        self.is_write = is_write
        self.cycle = cycle
        self.hit = False
        self.set_index = 0
        self.is_demand = True
        self.is_prefetch = False
        self.is_writeback = False
        return self

    def reset_prefetch(
        self, pc: int, address: int, block_addr: int, cycle: float
    ) -> "AccessInfo":
        self.pc = pc
        self.address = address
        self.block_addr = block_addr
        self.type = PREFETCH
        self.is_write = False
        self.cycle = cycle
        self.hit = False
        self.set_index = 0
        self.is_demand = False
        self.is_prefetch = True
        self.is_writeback = False
        return self

    def reset_writeback(self, block_addr: int, cycle: float) -> "AccessInfo":
        self.pc = 0
        self.address = block_addr << 6
        self.block_addr = block_addr
        self.type = WRITEBACK
        self.is_write = True
        self.cycle = cycle
        self.hit = False
        self.set_index = 0
        self.is_demand = False
        self.is_prefetch = False
        self.is_writeback = True
        return self
