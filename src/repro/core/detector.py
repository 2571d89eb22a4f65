"""HAccRG detector: the hook implementation that wires RDUs into the GPU.

:class:`HAccRGDetector` implements :class:`repro.gpu.hooks.DetectorHooks`:

- a :class:`SharedRDU` per SM (created lazily), holding per-block shared
  shadow tables; barrier invalidation stalls the releasing block for the
  parallel-reset cycles;
- one :class:`GlobalRDU` (functionally; physically per memory slice) whose
  shadow read-modify-writes are injected into the memory system as
  non-stalling background traffic — global detection overhead is pure L2
  pollution and DRAM contention, as in the hardware proposal;
- the race register file of warp fence epochs;
- Bloom-signature maintenance of per-thread atomic IDs on lock markers;
- the Fig. 8 ``shared_shadow_in_global`` split: shared shadow entries are
  fetched through the L1 and *do* stall the access on misses.

Usage::

    cfg = HAccRGConfig(mode=DetectionMode.FULL)
    sim = GPUSimulator(GPUConfig())
    det = HAccRGDetector(cfg, sim)
    sim.attach_detector(det)
    sim.launch(kernel, grid, block, args)
    print(det.log.reports)
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.common.config import HAccRGConfig
from repro.common.types import MemSpace, Transaction, WarpAccess
from repro.core.bloom import BloomSignature
from repro.core.clocks import RaceRegisterFile
from repro.core.races import RaceLog
from repro.core.rdu_global import GlobalRDU
from repro.core.rdu_shared import SharedRDU
from repro.core.shadow_memory import GlobalShadowMemory
from repro.gpu.hooks import NO_EFFECT, DetectorHooks, TimingEffect


class HAccRGDetector(DetectorHooks):
    """The hardware-accelerated race detector of the paper."""

    def __init__(self, config: HAccRGConfig, sim: Any) -> None:
        self.config = config
        self.sim = sim
        self.log = RaceLog()
        self.rrf = RaceRegisterFile(config.fence_id_bits)
        self.bloom = BloomSignature(config.atomic_sig_bits,
                                    config.atomic_sig_bins)
        self.shared_rdus: Dict[int, SharedRDU] = {}
        self.global_rdu = GlobalRDU(sim.config, config, self.log, self.rrf)
        self._shared_shadow_regions: Dict[int, int] = {}  # block_id -> base
        #: (tracked region bytes, shadow base) — reserved at first launch
        self._global_shadow_region: Optional[tuple] = None
        self._active = False
        # Fig. 8 instrumentation counters
        self.shared_shadow_stall_cycles = 0
        self.shared_shadow_misses = 0

    # ------------------------------------------------------------------

    @property
    def request_id_bits(self) -> int:
        if self.config.mode.global_enabled:
            return self.global_rdu.id_bits
        return 0

    def _shared_rdu(self, sm_id: int) -> SharedRDU:
        rdu = self.shared_rdus.get(sm_id)
        if rdu is None:
            rdu = SharedRDU(sm_id, self.sim.config, self.config, self.log)
            self.shared_rdus[sm_id] = rdu
        return rdu

    # ------------------------------------------------------------------
    # kernel / block lifecycle

    def on_kernel_start(self, launch: Any, device_mem: Any) -> None:
        self._active = True
        if self.config.mode.global_enabled:
            if self._global_shadow_region is None:
                # reserve the shadow region in device memory once, covering
                # the application data present at first launch (cudaMalloc
                # at kernel launch, §IV-B); later launches of the workload
                # reuse it, re-invalidated between kernels
                region = device_mem.allocated_bytes
                footprint = GlobalShadowMemory.region_footprint(
                    region, self.config)
                base = device_mem.malloc(max(1, footprint),
                                         name="haccrg_global_shadow",
                                         internal=True)
                self._global_shadow_region = (region, base)
            region, shadow_base = self._global_shadow_region
            self.global_rdu.kernel_started(region, shadow_base)

    def on_kernel_end(self) -> None:
        self._active = False
        if self.config.mode.global_enabled:
            self.global_rdu.kernel_ended()

    def on_block_start(self, block: Any) -> None:
        if not self.config.mode.shared_enabled:
            return
        shadow_base: Optional[int] = None
        if self.config.shared_shadow_in_global:
            # Fig. 8: the block's shared shadow entries live in global
            # memory; allocate a region so fetches go through L1/L2
            shared_bytes = block.launch.kernel.shared_bytes()
            if shared_bytes:
                entries = -(-shared_bytes // self.config.shared_granularity)
                entry_bytes = -(-self.config.shared_entry_bits() // 8)
                shadow_base = self.sim.device_mem.malloc(
                    max(1, entries * entry_bytes),
                    name="haccrg_shared_shadow", internal=True,
                )
        self._shared_rdu(block.sm_id).block_started(block, shadow_base)

    def on_block_end(self, block: Any) -> None:
        if self.config.mode.shared_enabled and block.sm_id is not None:
            self._shared_rdu(block.sm_id).block_ended(block)

    # ------------------------------------------------------------------
    # access hooks

    def on_warp_access(self, access: WarpAccess, now: int,
                       lane_l1_hit: Optional[Sequence[bool]] = None
                       ) -> TimingEffect:
        if not self._active:
            return NO_EFFECT
        if access.space == MemSpace.SHARED:
            return self._on_shared(access, now)
        return self._on_global(access, now, lane_l1_hit)

    def _on_shared(self, access: WarpAccess, now: int) -> TimingEffect:
        if not self.config.mode.shared_enabled:
            return NO_EFFECT
        rdu = self._shared_rdu(access.sm_id)
        rdu.check_access(access)
        if not self.config.shared_shadow_in_global:
            # dedicated hardware shadow: detection rides the bank access
            return NO_EFFECT
        # Fig. 8: fetch the shadow lines through the L1; misses stall
        lines = rdu.shadow_fetch_lines(access)
        if not lines:
            return NO_EFFECT
        txns = [Transaction(a, self.sim.config.l1d_line, is_write=False,
                            is_shadow=True) for a in lines]
        latency, levels = self.sim.memory.warp_access(access.sm_id, txns, now)
        stall = 0
        if any(level != "l1" for level in levels):
            stall = latency
            self.shared_shadow_misses += sum(
                1 for level in levels if level != "l1"
            )
        self.shared_shadow_stall_cycles += stall
        return TimingEffect(stall_cycles=stall)

    def _on_global(self, access: WarpAccess, now: int,
                   lane_l1_hit: Optional[Sequence[bool]]) -> TimingEffect:
        if not self.config.mode.global_enabled:
            return NO_EFFECT
        txns = self.global_rdu.check_access(access, lane_l1_hit=lane_l1_hit)
        if txns and self.sim.timing_enabled:
            # shadow RMWs ride the memory system without stalling the warp
            self.sim.memory.background_access(access.sm_id, txns, now,
                                              id_bits=self.request_id_bits)
        return NO_EFFECT

    # ------------------------------------------------------------------
    # synchronization hooks

    def on_barrier(self, block: Any, now: int) -> TimingEffect:
        stall = 0
        if self.config.mode.shared_enabled and block.sm_id is not None:
            rdu = self._shared_rdu(block.sm_id)
            if self.config.shared_shadow_in_global:
                # invalidation becomes a memset of the in-memory shadow;
                # background traffic, small fixed trigger cost
                base = rdu._shadow_base.get(block.block_id)
                table = rdu.table_for(block.block_id)
                if base is not None and table is not None:
                    table.barrier_reset()
                    entry_bytes = -(-self.config.shared_entry_bits() // 8)
                    nbytes = table.n * entry_bytes
                    line = self.sim.config.l2_line
                    txns = [
                        Transaction(base + off, line, is_write=True,
                                    is_shadow=True)
                        for off in range(0, nbytes, line)
                    ]
                    if self.sim.timing_enabled:
                        self.sim.memory.background_access(
                            block.sm_id, txns, now
                        )
                    stall += 4
            else:
                stall += rdu.barrier_invalidate(block)
        if self.config.mode.global_enabled:
            # sync-ID increment bookkeeping for the §VI-A2 ID-size study
            will_increment = (block.global_accessed_since_barrier
                              or not self.config.sync_id_lazy_increment)
            self.rrf.note_sync_increment(
                block.sync_id + (1 if will_increment else 0),
                self.config.sync_id_mask,
            )
        return TimingEffect(stall_cycles=stall)

    def on_fence(self, warp: Any, now: int) -> TimingEffect:
        if self.config.mode.global_enabled:
            self.rrf.on_fence(warp.warp_id, warp.fence_id)
        return NO_EFFECT

    # ------------------------------------------------------------------
    # lock markers -> atomic-ID signatures

    def on_lock_acquire(self, thread: Any, addr: int) -> int:
        return self.bloom.insert(thread.lock_sig, addr)

    def on_lock_release(self, thread: Any, addr: int) -> int:
        # clear-on-empty (§III-B): signature survives until all locks drop
        if not thread.held_locks:
            return 0
        return thread.lock_sig
