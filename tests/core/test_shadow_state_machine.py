"""Unit tests for the shared-memory shadow state machine (paper Fig. 3)."""

import pytest

from repro.common.types import (
    AccessKind,
    LaneAccess,
    MemSpace,
    RaceKind,
    WarpAccess,
)
from repro.core.races import RaceLog
from repro.core.shadow import SharedShadowTable


def wa(addr, kind, warp_id, tid_base=0, lane=0, block_id=0, size=4):
    la = LaneAccess(lane, addr, size, kind)
    return WarpAccess(space=MemSpace.SHARED, kind=kind, lanes=[la],
                      sm_id=0, block_id=block_id, warp_id=warp_id,
                      warp_in_block=warp_id, base_tid=tid_base)


def make(granularity=4, regroup=False):
    log = RaceLog()
    return SharedShadowTable(256, granularity, log, regroup=regroup), log


R, W = AccessKind.READ, AccessKind.WRITE


class TestStateTransitions:
    def test_virgin_read_enters_state2(self):
        t, log = make()
        t.check(wa(0, R, warp_id=0))
        e = t.entry(0)
        assert not e.M and not e.S
        assert e.tid == 0 and len(log) == 0

    def test_virgin_write_enters_state3(self):
        t, log = make()
        t.check(wa(0, W, warp_id=0))
        assert t.entry(0).M and not t.entry(0).S
        assert len(log) == 0

    def test_read_read_same_warp_stays_state2(self):
        t, log = make()
        t.check(wa(0, R, warp_id=0, lane=0))
        t.check(wa(0, R, warp_id=0, lane=1))
        assert not t.entry(0).S and len(log) == 0

    def test_read_read_cross_warp_sets_shared(self):
        t, log = make()
        t.check(wa(0, R, warp_id=0))
        t.check(wa(0, R, warp_id=1, tid_base=32))
        assert t.entry(0).S and not t.entry(0).M
        assert len(log) == 0

    def test_same_warp_write_after_read_upgrades(self):
        t, log = make()
        t.check(wa(0, R, warp_id=0, lane=0))
        t.check(wa(0, W, warp_id=0, lane=1))
        assert t.entry(0).M and len(log) == 0


class TestRaceDetection:
    def test_war_write_after_single_read(self):
        t, log = make()
        t.check(wa(0, R, warp_id=0))
        t.check(wa(0, W, warp_id=1, tid_base=32))
        assert log.by_kind() == {RaceKind.WAR: 1}

    def test_raw_read_after_write(self):
        t, log = make()
        t.check(wa(0, W, warp_id=0))
        t.check(wa(0, R, warp_id=1, tid_base=32))
        assert log.by_kind() == {RaceKind.RAW: 1}

    def test_waw_write_after_write(self):
        t, log = make()
        t.check(wa(0, W, warp_id=0))
        t.check(wa(0, W, warp_id=1, tid_base=32))
        assert log.by_kind() == {RaceKind.WAW: 1}

    def test_war_from_multi_reader_state(self):
        t, log = make()
        t.check(wa(0, R, warp_id=0))
        t.check(wa(0, R, warp_id=1, tid_base=32))
        t.check(wa(0, W, warp_id=0))  # even the first reader's warp races
        assert log.by_kind() == {RaceKind.WAR: 1}

    def test_same_warp_never_races_across_instructions(self):
        t, log = make()
        t.check(wa(0, W, warp_id=0, lane=0))
        t.check(wa(0, R, warp_id=0, lane=1))
        t.check(wa(0, W, warp_id=0, lane=2))
        assert len(log) == 0

    def test_report_carries_identities(self):
        t, log = make()
        t.check(wa(0, W, warp_id=0, tid_base=5))
        t.check(wa(0, R, warp_id=1, tid_base=37))
        r = log.reports[0]
        assert r.owner_tid == 5
        assert r.access_tid == 37
        assert r.space == MemSpace.SHARED


class TestBarrierReset:
    def test_reset_clears_history(self):
        t, log = make()
        t.check(wa(0, W, warp_id=0))
        assert t.barrier_reset() == t.n
        t.check(wa(0, R, warp_id=1, tid_base=32))  # would be RAW without reset
        assert len(log) == 0

    def test_reset_restores_virgin_encoding(self):
        t, _ = make()
        t.check(wa(0, R, warp_id=0))
        t.barrier_reset()
        assert all(t.entry(e).M and t.entry(e).S for e in range(t.n))
        assert t.store == {}


class TestWarpRegrouping:
    def test_regroup_compares_threads_not_warps(self):
        """§III-A: with dynamic warp re-grouping, same-warp suppression is
        disabled and races are reported between different threads."""
        t, log = make(regroup=True)
        t.check(wa(0, W, warp_id=0, tid_base=0, lane=0))
        # same warp, different thread -> race under re-grouping
        t.check(wa(0, R, warp_id=0, tid_base=0, lane=1))
        assert log.by_kind() == {RaceKind.RAW: 1}

    def test_regroup_same_thread_still_safe(self):
        t, log = make(regroup=True)
        t.check(wa(0, W, warp_id=0, lane=0))
        t.check(wa(0, R, warp_id=0, lane=0))
        assert len(log) == 0


class TestIntraWarpWAW:
    def _double_write(self, addr_a, addr_b, size=4):
        lanes = [LaneAccess(0, addr_a, size, W), LaneAccess(1, addr_b, size, W)]
        return WarpAccess(space=MemSpace.SHARED, kind=W, lanes=lanes,
                          sm_id=0, block_id=0, warp_id=0, warp_in_block=0,
                          base_tid=0)

    def test_same_address_lanes_report_waw(self):
        t, log = make()
        t.check(self._double_write(0, 0))
        assert log.by_kind() == {RaceKind.WAW: 1}

    def test_adjacent_addresses_in_one_entry_not_reported(self):
        """§VI-A1: a whole warp mapping to one coarse entry is implicitly
        synchronized — only byte-overlapping lane writes are WAW."""
        t, log = make(granularity=16)
        t.check(self._double_write(0, 4))
        assert len(log) == 0

    def test_partial_overlap_reported(self):
        t, log = make(granularity=16)
        lanes = [LaneAccess(0, 0, 8, W), LaneAccess(1, 4, 8, W)]
        acc = WarpAccess(space=MemSpace.SHARED, kind=W, lanes=lanes,
                         sm_id=0, block_id=0, warp_id=0, warp_in_block=0,
                         base_tid=0)
        t.check(acc)
        assert log.by_kind()[RaceKind.WAW] >= 1


class TestGranularityAliasing:
    def test_coarse_entry_aliases_neighbors(self):
        """At 16B granularity, writes to different words by different
        warps map to one entry -> (false) WAW."""
        t, log = make(granularity=16)
        t.check(wa(0, W, warp_id=0))
        t.check(wa(4, W, warp_id=1, tid_base=32))
        assert log.by_kind() == {RaceKind.WAW: 1}

    def test_fine_entries_do_not_alias(self):
        t, log = make(granularity=4)
        t.check(wa(0, W, warp_id=0))
        t.check(wa(4, W, warp_id=1, tid_base=32))
        assert len(log) == 0
