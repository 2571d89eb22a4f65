"""Unit tests for the set-associative cache model."""

import pytest

from repro.common.errors import ConfigError
from repro.memory.cache import Cache


def make(size=1024, assoc=2, line=64):
    return Cache(size, assoc, line)


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = make()
        hit, _, _ = c.access(0)
        assert not hit
        hit, _, _ = c.access(0)
        assert hit

    def test_same_line_hits(self):
        c = make(line=64)
        c.access(0)
        hit, _, _ = c.access(63)
        assert hit
        hit, _, _ = c.access(64)
        assert not hit

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            Cache(1000, 3, 64)  # size not divisible
        with pytest.raises(ConfigError):
            Cache(1024, 2, 48)  # line not power of two

    def test_num_sets(self):
        assert make(1024, 2, 64).num_sets == 8


class TestLRU:
    def test_eviction_order(self):
        c = make(size=128, assoc=2, line=64)  # 1 set, 2 ways
        c.access(0)
        c.access(64)
        c.access(0)        # touch 0: 64 becomes LRU
        c.access(128)      # evicts 64
        assert c.probe(0)
        assert not c.probe(64)
        assert c.probe(128)

    def test_eviction_counted(self):
        c = make(size=128, assoc=2, line=64)
        for i in range(3):
            c.access(i * 64)
        assert c.stats.evictions == 1


class TestWriteState:
    def test_write_marks_dirty_and_writeback_on_evict(self):
        c = make(size=128, assoc=1, line=64)  # 2 sets direct-mapped
        c.access(0, is_write=True)
        _, wb, _ = c.access(128, is_write=False)  # same set, evicts dirty 0
        assert wb == 0
        assert c.stats.dirty_evictions == 1

    def test_clean_eviction_no_writeback(self):
        c = make(size=128, assoc=1, line=64)
        c.access(0, is_write=False)
        _, wb, _ = c.access(128)
        assert wb is None

    def test_write_hit_marks_dirty(self):
        c = make(size=128, assoc=1, line=64)
        c.access(0, is_write=False)
        c.access(0, is_write=True)
        _, wb, _ = c.access(128)
        assert wb == 0


class TestInvalidate:
    def test_invalidate_removes(self):
        c = make()
        c.access(0)
        assert c.invalidate(0)
        assert not c.probe(0)

    def test_invalidate_absent_returns_false(self):
        assert not make().invalidate(0)

    def test_untouched_sets_read_as_empty(self):
        c = make()
        assert not c.probe(64)
        assert c.resident_lines() == 0 and c.flush() == 0
        c.access(64, is_write=True)
        assert c.probe(64) and not c.probe(0)
        assert c.resident_lines() == 1 and c.flush() == 1

    def test_flush_counts_dirty(self):
        c = make()
        c.access(0, is_write=True)
        c.access(64, is_write=False)
        assert c.flush() == 1
        assert c.resident_lines() == 0


class TestShadowTracking:
    def test_shadow_stats(self):
        c = make()
        c.access(0, is_write=True, shadow=True)
        c.access(0, is_write=True, shadow=True)
        assert c.stats.shadow_accesses == 2
        assert c.stats.shadow_hits == 1
        assert c.stats.shadow_resident_peak == 1

    def test_no_allocate_probe_mode(self):
        c = make()
        hit, wb, wb_shadow = c.access(0, allocate=False)
        assert not hit and wb is None and not wb_shadow
        assert not c.probe(0)
