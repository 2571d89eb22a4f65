"""Unit tests for the tagged vs split shadow-TLB mechanisms."""

import random

import pytest

from repro.common.errors import ConfigError
from repro.vm.page_table import PageTable
from repro.vm.tlb import PAGE_WALK_CYCLES, SplitTLB, TaggedTLB


def make_pt(pages=64):
    pt = PageTable(4096)
    pt.map_range(0, pages * 4096, is_global=True)
    return pt


class TestTaggedTLB:
    def test_hit_after_miss(self):
        tlb = TaggedTLB(8, make_pt())
        _, c1 = tlb.translate(0)
        _, c2 = tlb.translate(0)
        assert c1 == 1 + PAGE_WALK_CYCLES
        assert c2 == 1

    def test_shadow_entries_separate_from_app(self):
        """The 1-bit tag distinguishes shadow and app translations of
        the same page — both must miss independently."""
        tlb = TaggedTLB(8, make_pt())
        tlb.translate(0)
        _, c = tlb.shadow_translate(0)
        assert c == 1 + PAGE_WALK_CYCLES  # not satisfied by the app entry

    def test_capacity_pressure_from_shadow_entries(self):
        """§IV-B: shadow entries reduce effective capacity for regular
        translations — app-only working set fits, app+shadow thrashes."""
        pt = make_pt(pages=8)
        app_only = TaggedTLB(8, pt)
        for _ in range(3):
            for p in range(8):
                app_only.translate(p * 4096)
        assert app_only.stats.app_miss_rate < 0.4

        mixed = TaggedTLB(8, make_pt(pages=8))
        for _ in range(3):
            for p in range(8):
                mixed.access_cycles(p * 4096)  # app + shadow per access
        assert mixed.stats.app_miss_rate > app_only.stats.app_miss_rate

    def test_serialized_double_probe(self):
        tlb = TaggedTLB(16, make_pt())
        tlb.access_cycles(0)
        cycles = tlb.access_cycles(0)  # all hits
        assert cycles == 2  # two serialized probes

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigError):
            TaggedTLB(0, make_pt())


def _runs(seed, pages):
    """A stream of (vaddr, count) same-page runs over ``pages`` pages."""
    rng = random.Random(seed)
    return [(rng.randrange(pages) * 4096 + 4 * rng.randrange(1024),
             rng.randint(1, 32)) for _ in range(60)]


class TestAccessRun:
    """``access_run`` must equal the per-lane loop it replaces."""

    @pytest.mark.parametrize("entries", [1, 2, 16])
    @pytest.mark.parametrize("shadowed", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_lane_loop(self, entries, shadowed, seed):
        pages = 2 * entries + 3
        lanes = TaggedTLB(entries, make_pt(pages + 1))
        runs = TaggedTLB(entries, make_pt(pages + 1))
        for vaddr, count in _runs(seed, pages):
            page = vaddr - vaddr % 4096
            want = 0
            for k in range(count):  # lanes walk the run's one page
                addr = page + (vaddr + 4 * k) % 4096
                want += (lanes.access_cycles(addr) if shadowed
                         else lanes.translate(addr)[1])
            assert runs.access_run(vaddr, count, shadowed) == want
            assert runs.stats.record() == lanes.stats.record()
            assert runs._array._slots == lanes._array._slots
        # a later miss must pick the same victim
        fresh = pages * 4096
        if shadowed:
            lanes.access_cycles(fresh)
            runs.access_cycles(fresh)
        else:
            lanes.translate(fresh)
            runs.translate(fresh)
        assert set(runs._array._slots) == set(lanes._array._slots)
        assert runs.stats.record() == lanes.stats.record()


class TestSplitTLB:
    def test_shadow_does_not_evict_app(self):
        pt = make_pt(pages=8)
        tlb = SplitTLB(8, 4, pt)
        for _ in range(3):
            for p in range(8):
                tlb.access_cycles(p * 4096)
        # the app TLB holds the full working set despite shadow traffic
        assert tlb.stats.app_miss_rate < 0.4

    def test_parallel_probe_cost(self):
        tlb = SplitTLB(16, 8, make_pt())
        tlb.access_cycles(0)
        assert tlb.access_cycles(0) == 1  # max of two parallel hits

    def test_small_shadow_tlb_still_effective(self):
        """Shadow pages are fewer than app pages (one shadow covers the
        global-space subset), so a smaller shadow TLB suffices."""
        pt = make_pt(pages=4)
        tlb = SplitTLB(16, 4, pt)
        for _ in range(4):
            for p in range(4):
                tlb.access_cycles(p * 4096)
        assert tlb.stats.shadow_miss_rate < 0.3


class TestMechanismComparison:
    def test_split_beats_tagged_under_pressure(self):
        """The paper's conclusion: the split design gives faster TLB
        accesses (fewer misses at equal regular capacity)."""
        def drive(tlb):
            total = 0
            for _ in range(4):
                for p in range(8):
                    total += tlb.access_cycles(p * 4096)
            return total

        tagged_cycles = drive(TaggedTLB(8, make_pt(pages=8)))
        split_cycles = drive(SplitTLB(8, 8, make_pt(pages=8)))
        assert split_cycles < tagged_cycles

    def test_on_demand_shadow_pages_bounded(self):
        pt = make_pt(pages=16)
        tlb = SplitTLB(16, 8, pt)
        for p in range(16):
            tlb.access_cycles(p * 4096)
        assert pt.shadow_pages_allocated == 16
