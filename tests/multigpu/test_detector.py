"""DirectoryDetector unit semantics against the shared cross-device rule.

These tests drive the granule-level detector directly with synthetic
access/fence records; the full-system agreement with the byte-exact
oracle is exercised by tests/multigpu/test_bench.py and the fuzz
differential harness.
"""

from repro.common.types import AccessKind, RaceCategory, RaceKind
from repro.gpu.device import DeviceMemory
from repro.multigpu.detector import DirectoryDetector
from repro.multigpu.memory import SharedPagePool

READ = int(AccessKind.READ)
WRITE = int(AccessKind.WRITE)
ATOMIC = int(AccessKind.ATOMIC)


def make_detector(devices: int = 2):
    pool = SharedPagePool(devices, DeviceMemory())
    arr = pool.alloc("u", 64, home=0, shared=True)
    det = DirectoryDetector(pool, granularity=4)
    return pool, arr, det


def touch_directory(pool, arr, devices=(0, 1)):
    """Mark the page multi-sharer so the granule survives the work-list."""
    vpn = pool.vpn_of(arr.base)
    for d in devices:
        pool.directory.note_access(vpn, d, WRITE)


class TestVerdicts:
    def test_cross_device_write_read_is_raw_fence_race(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_access(1, 0, 0, READ, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert len(det.reports) == 1
        r = det.reports[0]
        assert (r.kind, r.category) == (RaceKind.RAW, RaceCategory.XGPU_FENCE)
        assert (r.first_device, r.second_device) == (0, 1)
        assert r.entry == arr.base // 4

    def test_cross_device_write_write_is_waw_sharing_race(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_access(1, 0, 0, WRITE, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert [(r.kind, r.category) for r in det.reports] == [
            (RaceKind.WAW, RaceCategory.XGPU_SHARING)]

    def test_same_device_pairs_never_race(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_access(0, 1, 1, WRITE, 32, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert det.reports == []

    def test_cross_device_reads_never_race(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, READ, 0, [(0, arr.base, 4)])
        det.on_access(1, 0, 0, READ, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert det.reports == []

    def test_system_atomics_serialize_at_home_node(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, ATOMIC, 0, [(0, arr.base, 4)])
        det.on_access(1, 0, 0, ATOMIC, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert det.reports == []

    def test_atomic_vs_plain_write_still_races(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, ATOMIC, 0, [(0, arr.base, 4)])
        det.on_access(1, 0, 0, WRITE, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert [r.kind for r in det.reports] == [RaceKind.WAW]


class TestFenceScope:
    def test_system_fence_after_write_publishes(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_fence(0, 0, scope=1)
        det.on_access(1, 0, 0, READ, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert det.reports == []

    def test_device_scope_fence_does_not_publish(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_fence(0, 0, scope=0)
        det.on_access(1, 0, 0, READ, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert [r.kind for r in det.reports] == [RaceKind.RAW]

    def test_fence_before_write_does_not_publish_it(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_fence(0, 0, scope=1)
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_access(1, 0, 0, READ, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert [r.kind for r in det.reports] == [RaceKind.RAW]

    def test_fence_epoch_persists_across_phases(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_fence(0, 0, scope=1)
        det.flush_phase(0)
        # next phase: the same warp writes again with no new fence — the
        # old epoch is its stamp, so the write is unpublished again
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_access(1, 0, 0, READ, 64, [(0, arr.base, 4)])
        det.flush_phase(1)
        assert [r.kind for r in det.reports] == [RaceKind.RAW]
        assert det.reports[0].phase == 1


class TestDirectoryWorkList:
    def test_single_sharer_granules_are_pruned(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr, devices=(0,))  # one sharer only
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_access(1, 0, 0, READ, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert det.reports == []
        assert det.granules_pruned == 1
        assert det.granules_evaluated == 0

    def test_multi_sharer_granules_are_evaluated(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_access(1, 0, 0, READ, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert det.granules_evaluated == 1
        assert det.granules_pruned == 0

    def test_unregistered_page_is_pruned(self):
        pool, arr, det = make_detector()
        # no note_access at all: the directory entry has no sharers
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_access(1, 0, 0, READ, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert det.reports == []
        assert det.granules_pruned == 1

    def test_sharer_count(self):
        pool, arr, _ = make_detector(devices=3)
        vpn = pool.vpn_of(arr.base)
        directory = pool.directory
        assert directory.sharer_count(vpn + 1000) == 0  # unregistered
        assert directory.sharer_count(vpn) == 0  # registered, untouched
        for d in (2, 0, 2):
            directory.note_access(vpn, d, READ)
        assert directory.sharer_count(vpn) == 2
        assert directory.sharer_count(vpn + 1000) == 0


class TestGranularityAndDedup:
    def test_wide_access_spans_multiple_granules(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 8)])
        det.on_access(1, 0, 0, WRITE, 64, [(0, arr.base, 8)])
        det.flush_phase(0)
        assert sorted(r.entry for r in det.reports) == [
            arr.base // 4, arr.base // 4 + 1]

    def test_duplicate_verdicts_deduplicated_per_granule(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        # two lanes of each warp hit the same granule: one report
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4), (1, arr.base, 4)])
        det.on_access(1, 0, 0, WRITE, 64, [(0, arr.base, 4), (1, arr.base, 4)])
        det.flush_phase(0)
        assert len(det.reports) == 1


class TestSurfaces:
    def test_entry_keys_use_xgpu_namespace(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_access(1, 0, 0, READ, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        assert det.entry_keys() == {("XGPU", arr.base // 4)}

    def test_record_is_json_safe_and_counts_by_axis(self):
        import json

        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, WRITE, 0, [(0, arr.base, 4)])
        det.on_access(1, 0, 0, WRITE, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        rec = det.record()
        json.dumps(rec)
        assert rec["races"] == 1
        assert rec["by_kind"] == {"WAW": 1}
        assert rec["by_category"] == {"XGPU_SHARING": 1}

    def test_describe_names_both_endpoints(self):
        pool, arr, det = make_detector()
        touch_directory(pool, arr)
        det.on_access(0, 0, 0, WRITE, 3, [(1, arr.base, 4)])
        det.on_access(1, 0, 0, READ, 64, [(0, arr.base, 4)])
        det.flush_phase(0)
        text = det.reports[0].describe()
        assert "device 0" in text and "device 1" in text
        assert "tid 4" in text and "tid 64" in text
