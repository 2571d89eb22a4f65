"""Unit tests for the global shadow memory (paper §IV-B semantics)."""

import pytest

from repro.common.config import HAccRGConfig, DetectionMode
from repro.common.types import (
    AccessKind,
    LaneAccess,
    MemSpace,
    RaceCategory,
    RaceKind,
    WarpAccess,
)
from repro.core.clocks import RaceRegisterFile
from repro.core.races import RaceLog
from repro.core.shadow_memory import GlobalShadowMemory, global_shadow_footprint

R, W, A = AccessKind.READ, AccessKind.WRITE, AccessKind.ATOMIC


def wa(addr, kind, warp_id=0, block_id=0, sm_id=0, tid_base=0, lane=0,
       sync_id=0, fence_id=0, sig=0, critical=False, size=4):
    la = LaneAccess(lane, addr, size, kind, sig=sig, critical=critical)
    return WarpAccess(space=MemSpace.GLOBAL, kind=kind, lanes=[la],
                      sm_id=sm_id, block_id=block_id, warp_id=warp_id,
                      warp_in_block=warp_id, base_tid=tid_base,
                      sync_id=sync_id, fence_id=fence_id,
                      in_critical=critical)


def make(granularity=4):
    log = RaceLog()
    rrf = RaceRegisterFile(8)
    cfg = HAccRGConfig(mode=DetectionMode.GLOBAL,
                       global_granularity=granularity)
    return GlobalShadowMemory(1024, cfg, log, rrf), log, rrf


class TestBasicStateMachine:
    def test_cross_warp_waw(self):
        g, log, _ = make()
        g.check(wa(0, W, warp_id=0))
        g.check(wa(0, W, warp_id=1, tid_base=32))
        assert log.by_kind() == {RaceKind.WAW: 1}

    def test_cross_block_categories(self):
        g, log, _ = make()
        g.check(wa(0, W, warp_id=0, block_id=0))
        g.check(wa(0, R, warp_id=9, block_id=1, tid_base=320))
        assert log.reports[0].category == RaceCategory.GLOBAL_FENCE

    def test_same_block_raw_is_barrier_category(self):
        g, log, _ = make()
        g.check(wa(0, W, warp_id=0, block_id=0))
        g.check(wa(0, R, warp_id=1, block_id=0, tid_base=32))
        assert log.reports[0].category == RaceCategory.GLOBAL_BARRIER


class TestSyncIDRefresh:
    def test_barrier_epoch_separates_same_block_accesses(self):
        """Same block, different sync ID -> barrier ordered, no race."""
        g, log, _ = make()
        g.check(wa(0, W, warp_id=0, block_id=0, sync_id=0))
        g.check(wa(0, R, warp_id=1, block_id=0, tid_base=32, sync_id=1))
        assert len(log) == 0
        assert g.stats.sync_refreshes == 1

    def test_same_epoch_still_races(self):
        g, log, _ = make()
        g.check(wa(0, W, warp_id=0, block_id=0, sync_id=3))
        g.check(wa(0, R, warp_id=1, block_id=0, tid_base=32, sync_id=3))
        assert len(log) == 1

    def test_sync_id_not_checked_across_blocks(self):
        """§IV-B: the barrier's scope is one block — different blocks race
        regardless of their sync IDs."""
        g, log, _ = make()
        g.check(wa(0, W, warp_id=0, block_id=0, sync_id=0))
        g.check(wa(0, R, warp_id=9, block_id=1, tid_base=320, sync_id=1))
        assert len(log) == 1

    def test_sync_id_masking(self):
        """Stored sync IDs wrap at the configured width (8 bits)."""
        g, log, _ = make()
        g.check(wa(0, W, warp_id=0, block_id=0, sync_id=0))
        # 256 & 0xFF == 0: aliases back to the stored epoch -> treated as
        # same epoch (the rare overflow false positive the paper accepts)
        g.check(wa(0, R, warp_id=1, block_id=0, tid_base=32, sync_id=256))
        assert len(log) == 1


class TestFenceSuppression:
    def test_unfenced_producer_read_races(self):
        g, log, rrf = make()
        g.check(wa(0, W, warp_id=0, fence_id=0))
        g.check(wa(0, R, warp_id=1, tid_base=32))
        assert log.by_kind() == {RaceKind.RAW: 1}

    def test_fenced_producer_read_is_safe(self):
        g, log, rrf = make()
        g.check(wa(0, W, warp_id=0, fence_id=0))
        rrf.on_fence(warp_id=0, new_raw_value=1)  # producer fences
        g.check(wa(0, R, warp_id=1, tid_base=32))
        assert len(log) == 0
        assert g.stats.fence_suppressed == 1

    def test_fence_does_not_suppress_waw(self):
        g, log, rrf = make()
        g.check(wa(0, W, warp_id=0, fence_id=0))
        rrf.on_fence(0, 1)
        g.check(wa(0, W, warp_id=1, tid_base=32))
        assert log.by_kind() == {RaceKind.WAW: 1}

    def test_fence_epoch_stored_at_write_time(self):
        """A fence executed *before* the write does not make it safe."""
        g, log, rrf = make()
        rrf.on_fence(0, 1)
        g.check(wa(0, W, warp_id=0, fence_id=1))  # write after the fence
        g.check(wa(0, R, warp_id=1, tid_base=32))
        assert log.by_kind() == {RaceKind.RAW: 1}


class TestStaleL1Check:
    def test_cross_sm_l1_hit_read_reports_stale(self):
        g, log, rrf = make()
        g.check(wa(0, W, warp_id=0, sm_id=0))
        rrf.on_fence(0, 1)  # even a fence cannot fix a stale L1 line
        acc = wa(0, R, warp_id=9, block_id=1, sm_id=1, tid_base=320)
        g.check(acc, lane_l1_hit=[True])
        assert len(log) == 1
        assert log.reports[0].stale_l1

    def test_same_sm_l1_hit_not_stale(self):
        g, log, rrf = make()
        g.check(wa(0, W, warp_id=0, sm_id=0))
        rrf.on_fence(0, 1)
        acc = wa(0, R, warp_id=1, sm_id=0, tid_base=32)
        g.check(acc, lane_l1_hit=[True])
        assert len(log) == 0

    def test_l1_miss_cross_sm_follows_fence_rule(self):
        g, log, rrf = make()
        g.check(wa(0, W, warp_id=0, sm_id=0))
        rrf.on_fence(0, 1)
        acc = wa(0, R, warp_id=9, block_id=1, sm_id=1, tid_base=320)
        g.check(acc, lane_l1_hit=[False])
        assert len(log) == 0


class TestAtomics:
    def test_atomic_atomic_not_a_race(self):
        g, log, _ = make()
        g.check(wa(0, A, warp_id=0))
        g.check(wa(0, A, warp_id=1, tid_base=32))
        assert len(log) == 0
        assert g.stats.atomic_exemptions == 1

    def test_atomic_then_write_same_thread_safe(self):
        """The Fig. 1 idiom: the last atomicInc'er resets the counter."""
        g, log, _ = make()
        g.check(wa(0, A, warp_id=0, tid_base=0, lane=0))
        g.check(wa(0, W, warp_id=0, tid_base=0, lane=0))
        assert len(log) == 0

    def test_write_then_cross_warp_atomic_races(self):
        g, log, _ = make()
        g.check(wa(0, W, warp_id=0))
        g.check(wa(0, A, warp_id=1, tid_base=32))
        assert len(log) == 1


class TestLockset:
    def _sig(self, bit):
        return 1 << bit

    def test_common_lock_no_race(self):
        g, log, rrf = make()
        g.check(wa(0, W, warp_id=0, sig=self._sig(1), critical=True))
        rrf.on_fence(0, 1)  # correct idiom fences before unlock
        g.check(wa(0, W, warp_id=1, tid_base=32, sig=self._sig(1),
                   critical=True))
        assert len(log) == 0

    def test_disjoint_locksets_race(self):
        g, log, _ = make()
        g.check(wa(0, W, warp_id=0, sig=self._sig(1), critical=True))
        g.check(wa(0, W, warp_id=1, tid_base=32, sig=self._sig(2),
                   critical=True))
        assert log.reports[0].category == RaceCategory.GLOBAL_LOCKSET

    def test_protected_vs_unprotected_write_races(self):
        g, log, _ = make()
        g.check(wa(0, W, warp_id=0, sig=self._sig(1), critical=True))
        g.check(wa(0, W, warp_id=1, tid_base=32))  # naked write
        assert log.reports[0].category == RaceCategory.GLOBAL_LOCKSET

    def test_unprotected_then_protected_races(self):
        g, log, _ = make()
        g.check(wa(0, W, warp_id=0))
        g.check(wa(0, R, warp_id=1, tid_base=32, sig=self._sig(1),
                   critical=True))
        assert log.reports[0].category == RaceCategory.GLOBAL_LOCKSET

    def test_read_read_across_protection_no_race(self):
        g, log, _ = make()
        g.check(wa(0, R, warp_id=0, sig=self._sig(1), critical=True))
        g.check(wa(0, R, warp_id=1, tid_base=32))
        assert len(log) == 0

    def test_lockset_intersection_narrows(self):
        g, log, rrf = make()
        sig_ab = self._sig(1) | self._sig(2)
        g.check(wa(0, W, warp_id=0, sig=sig_ab, critical=True))
        rrf.on_fence(0, 1)
        g.check(wa(0, W, warp_id=1, tid_base=32, sig=self._sig(1),
                   critical=True))
        assert len(log) == 0
        entry = 0
        assert g.entry(entry).sig == self._sig(1)  # intersection stored

    def test_missing_fence_in_critical_section_races(self):
        """Fig. 2(b): common lock but producer never fenced before
        releasing -> the consumer's read can see stale data."""
        g, log, rrf = make()
        g.check(wa(0, W, warp_id=0, sig=self._sig(1), critical=True))
        # no fence by warp 0
        g.check(wa(0, R, warp_id=1, tid_base=32, sig=self._sig(1),
                   critical=True))
        assert log.reports[0].category == RaceCategory.GLOBAL_FENCE

    def test_fig2a_different_locks_read(self):
        """Fig. 2(a): T1 writes under L1, T2 reads under L2 -> race."""
        g, log, _ = make()
        g.check(wa(0, W, warp_id=0, sig=self._sig(1), critical=True))
        g.check(wa(0, R, warp_id=1, tid_base=32, sig=self._sig(2),
                   critical=True))
        assert len(log) == 1


class TestFootprint:
    def test_footprint_formula(self):
        # 1024 bytes at 4B granularity = 256 entries * 36 bits = 1152 B
        assert global_shadow_footprint(1024, 4, 36) == 1152

    def test_footprint_scales_with_granularity(self):
        assert global_shadow_footprint(1 << 20, 64) < \
            global_shadow_footprint(1 << 20, 4)

    def test_invalidate_restores_virgin(self):
        g, log, _ = make()
        g.check(wa(0, W))
        g.invalidate()
        assert all(g.entry(e).M and g.entry(e).S for e in range(g.n))
        assert g.store == {}
        g.check(wa(0, R, warp_id=1, tid_base=32))
        assert len(log) == 0
