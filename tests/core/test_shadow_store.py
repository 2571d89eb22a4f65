"""The sparse shadow-entry store behind both shadow tables.

A missing key is a virgin entry: building a table allocates nothing per
entry, reading a virgin entry stores nothing, and a reset (barrier flash
reset or kernel-end ``cudaMemset``) leaves a table that behaves exactly
like a fresh one.
"""

import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.common.config import DetectionMode, HAccRGConfig
from repro.common.types import AccessKind, LaneAccess, MemSpace, WarpAccess
from repro.core.clocks import RaceRegisterFile
from repro.core.races import RaceLog
from repro.core.shadow import SharedShadowTable
from repro.core.shadow_memory import GlobalShadowMemory

KINDS = (AccessKind.READ, AccessKind.WRITE, AccessKind.ATOMIC)
GLOBAL_CFG = HAccRGConfig(mode=DetectionMode.GLOBAL, global_granularity=4)

#: one warp access: (warp, kind index, [(lane, slot)], sig, critical)
access_specs = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 2),
        st.lists(st.tuples(st.integers(0, 31), st.integers(0, 15)),
                 min_size=1, max_size=8, unique_by=lambda t: t[0]),
        st.integers(0, 3),
        st.booleans(),
    ),
    min_size=1, max_size=20,
)


def _warp_access(spec, space):
    warp, kind_i, lane_slots, sig, critical = spec
    kind = KINDS[kind_i]
    lanes = [LaneAccess(lane, slot * 4, 4, kind, sig, critical)
             for lane, slot in sorted(lane_slots)]
    return WarpAccess(space=space, kind=kind, lanes=lanes,
                      sm_id=0, block_id=0, warp_id=warp,
                      warp_in_block=warp, base_tid=warp * 32)


def _allocated_by(factory):
    """Peak bytes allocated while ``factory()`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        obj = factory()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert obj is not None
    return peak


class TestConstruction:
    def test_global_over_one_gib_allocates_nothing_per_entry(self):
        peak = _allocated_by(lambda: GlobalShadowMemory(
            1 << 30, GLOBAL_CFG, RaceLog(), RaceRegisterFile(8)))
        assert peak < 64 * 1024

    def test_shared_over_48_kib_allocates_nothing_per_entry(self):
        peak = _allocated_by(lambda: SharedShadowTable(48 * 1024, 4,
                                                       RaceLog()))
        assert peak < 64 * 1024

    def test_sizes_still_priced_over_the_whole_region(self):
        g = GlobalShadowMemory(1 << 30, GLOBAL_CFG, RaceLog(),
                               RaceRegisterFile(8))
        assert g.n == (1 << 30) // 4
        assert g.footprint_bytes() == (1 << 28) * 36 // 8
        assert g.footprint_bytes() == \
            GlobalShadowMemory.region_footprint(1 << 30, GLOBAL_CFG)
        t = SharedShadowTable(48 * 1024, 4, RaceLog())
        assert t.barrier_reset() == 12 * 1024


class TestVirginReads:
    def test_reading_virgin_global_entry_stores_nothing(self):
        g = GlobalShadowMemory(1024, GLOBAL_CFG, RaceLog(),
                               RaceRegisterFile(8))
        e = g.entry(7)
        assert e.M and e.S and e.tid == -1 and e.sig == 0
        assert g.store == {}

    def test_reading_virgin_shared_entry_stores_nothing(self):
        t = SharedShadowTable(1024, 4, RaceLog())
        e = t.entry(7)
        assert e.M and e.S and e.tid == -1 and e.wid == -1
        assert t.store == {}

    def test_access_stores_only_touched_entries(self):
        t = SharedShadowTable(1024, 4, RaceLog())
        lanes = [LaneAccess(i, 64 + 4 * i, 4, AccessKind.WRITE)
                 for i in range(4)]
        t.check(WarpAccess(space=MemSpace.SHARED, kind=AccessKind.WRITE,
                           lanes=lanes, sm_id=0, block_id=0, warp_id=0,
                           warp_in_block=0, base_tid=0))
        assert sorted(t.store) == [16, 17, 18, 19]


class TestResetEqualsFresh:
    @given(access_specs, access_specs)
    @settings(max_examples=60, deadline=None)
    def test_shared_barrier_reset(self, before, after):
        log = RaceLog()
        reused = SharedShadowTable(64 * 4, 4, log)
        for spec in before:
            reused.check(_warp_access(spec, MemSpace.SHARED))
        reused.barrier_reset()
        log.clear()
        fresh = SharedShadowTable(64 * 4, 4, RaceLog())
        for spec in after:
            acc = _warp_access(spec, MemSpace.SHARED)
            assert reused.check(acc) == fresh.check(acc)
        assert reused.log == fresh.log
        assert reused.store == fresh.store

    @given(access_specs, access_specs)
    @settings(max_examples=60, deadline=None)
    def test_global_invalidate(self, before, after):
        log = RaceLog()
        rrf = RaceRegisterFile(8)
        reused = GlobalShadowMemory(64 * 4, GLOBAL_CFG, log, rrf)
        for spec in before:
            reused.check(_warp_access(spec, MemSpace.GLOBAL))
        reused.invalidate()
        log.clear()
        fresh = GlobalShadowMemory(64 * 4, GLOBAL_CFG, RaceLog(), rrf)
        for spec in after:
            acc = _warp_access(spec, MemSpace.GLOBAL)
            assert reused.check(acc) == fresh.check(acc)
        assert reused.log == fresh.log
        assert reused.store == fresh.store
