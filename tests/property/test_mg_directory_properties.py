"""Property suite: the directory detector's phase flush is exact (hypothesis).

:meth:`repro.multigpu.detector.DirectoryDetector.flush_phase` judges
each distinct occupant-key tuple once per phase and reuses the verdicts
as occupant indices. :class:`_ReferenceDirectory` below is the plain
form it must equal: the same granule feed, every granule's occupants
paired in order and every verdict deduplicated per
``(phase, granule, kind, category)``. On random multi-phase streams both
must give the same reports in the same order, down to the thread ids,
and the same evaluated/pruned granule counts.
"""

from typing import Dict, List, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.common.types import AccessKind
from repro.core.groundtruth import DeviceEndpoint, cross_device_verdict
from repro.gpu.device import DeviceMemory
from repro.multigpu.detector import CrossGPURace, DirectoryDetector
from repro.multigpu.memory import SharedPagePool

#: small pages, so a 128-byte window spans four of them
_PAGE = 32
_WINDOW = 128


class _ReferenceDirectory:
    """Granule occupants, judged pairwise for every granule."""

    def __init__(self, pool: SharedPagePool, granularity: int) -> None:
        self.pool = pool
        self.granularity = granularity
        self._epoch: Dict[Tuple[int, int], int] = {}
        self._final: Dict[Tuple[int, int], int] = {}
        self._granules: Dict[int, Dict[tuple, tuple]] = {}
        self.reports: List[CrossGPURace] = []
        self._seen: Set[tuple] = set()
        self.granules_evaluated = 0
        self.granules_pruned = 0

    def on_access(self, device, wid, bid, kind, base_tid, rows):
        stamp = self._epoch.get((device, wid), 0)
        self._final[(device, wid)] = stamp
        g = self.granularity
        key = (device, wid, kind, stamp)
        for lane, addr, size in rows:
            first = addr // g
            last = (addr + max(1, size) - 1) // g
            for entry in range(first, last + 1):
                occupants = self._granules.setdefault(entry, {})
                if key not in occupants:
                    occupants[key] = (device, wid, base_tid + lane, bid,
                                      kind, stamp)

    def on_fence(self, device, wid, scope):
        if scope:
            epoch = self._epoch.get((device, wid), 0) + 1
            self._epoch[(device, wid)] = epoch
            self._final[(device, wid)] = epoch

    def flush_phase(self, phase):
        sharers = {e.vpn: len(e.sharers)
                   for e in self.pool.directory.entries()}
        for entry in sorted(self._granules):
            vpn = self.pool.vpn_of(entry * self.granularity)
            if sharers.get(vpn, 0) < 2:
                self.granules_pruned += 1
                continue
            self.granules_evaluated += 1
            endpoints = [self._endpoint(phase, row)
                         for row in self._granules[entry].values()]
            for i, a in enumerate(endpoints):
                for b in endpoints[i + 1:]:
                    verdict = cross_device_verdict(a, b)
                    if verdict is None:
                        continue
                    kind, category = verdict
                    key = (phase, entry, kind, category)
                    if key in self._seen:
                        continue
                    self._seen.add(key)
                    lo, hi = ((a, b) if a.device < b.device else (b, a))
                    self.reports.append(CrossGPURace(
                        entry=entry, kind=kind, category=category,
                        phase=phase,
                        first_device=lo.device, second_device=hi.device,
                        first_tid=lo.tid, second_tid=hi.tid))
        self._granules.clear()
        self._final.clear()

    def _endpoint(self, phase, row):
        device, wid, tid, bid, kind, stamp = row
        final = self._final.get((device, wid), stamp)
        return DeviceEndpoint(device=device, phase=phase, wid=wid, tid=tid,
                              bid=bid, kind=kind,
                              sys_fenced_after=final > stamp)


_KINDS = [int(AccessKind.READ), int(AccessKind.WRITE),
          int(AccessKind.ATOMIC)]


@st.composite
def _lane(draw):
    # up to 32 bytes, so one lane spans several granules (and pages)
    size = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    addr = draw(st.integers(0, _WINDOW - size))
    return draw(st.integers(0, 31)), addr, size


@st.composite
def _op(draw, device):
    wid = draw(st.integers(0, 2))
    if draw(st.integers(0, 3)) == 0:
        return ("F", device, wid, draw(st.integers(0, 1)))
    lanes = draw(st.lists(_lane(), min_size=1, max_size=6))
    return ("A", device, wid, wid // 2, draw(st.sampled_from(_KINDS)),
            wid * 32, lanes)


@st.composite
def _case(draw):
    """Per-page sharer counts (0: unregistered), then 1-3 phases of
    records; fences of scope 0 and 1 fall before and after accesses of
    every kind, on 2-4 devices, and a phase may be fence-only or empty."""
    devices = draw(st.integers(2, 4))
    sharers = [draw(st.integers(-1, devices)) for _ in range(_WINDOW // _PAGE)]
    phases = []
    for _ in range(draw(st.integers(1, 3))):
        records = []
        for device in range(devices):
            records.extend(draw(st.lists(_op(device), max_size=8)))
        phases.append(records)
    return devices, sharers, draw(st.sampled_from([4, 16])), phases


def _pool(devices: int, sharers: List[int]) -> SharedPagePool:
    """A pool whose directory registers page ``i`` with ``sharers[i]``
    distinct sharers, or leaves it unregistered when that is -1."""
    pool = SharedPagePool(devices, DeviceMemory(), page_size=_PAGE)
    for vpn, count in enumerate(sharers):
        if count < 0:
            continue
        pool.directory.register_page(vpn, 0)
        for device in range(count):
            pool.directory.note_access(vpn, device, int(AccessKind.READ))
    return pool


def _run(detector, phases):
    for phase, records in enumerate(phases):
        for record in records:
            if record[0] == "A":
                detector.on_access(*record[1:])
            else:
                detector.on_fence(*record[1:])
        detector.flush_phase(phase)
    return (detector.reports, detector.granules_evaluated,
            detector.granules_pruned)


class TestDirectoryExactness:
    @settings(max_examples=300, deadline=None)
    @given(_case())
    def test_matches_reference(self, case):
        devices, sharers, granularity, phases = case
        pool = _pool(devices, sharers)
        assert _run(DirectoryDetector(pool, granularity), phases) == \
            _run(_ReferenceDirectory(pool, granularity), phases)

    def test_fence_between_writes_splits_signature(self):
        """A warp writes granule 0, issues a system fence, then writes
        granule 2; a peer reads both. The two occupant-key tuples differ
        only in the write's fence stamp, and only granule 2 races."""
        write, read = int(AccessKind.WRITE), int(AccessKind.READ)
        pool = _pool(2, [2, 2, 2, 2])
        phases = [[("A", 0, 0, 0, write, 0, [(0, 0, 4)]),
                   ("F", 0, 0, 1),
                   ("A", 0, 0, 0, write, 0, [(0, 8, 4)]),
                   ("A", 1, 0, 0, read, 0, [(0, 0, 4), (1, 8, 4)])]]
        got = _run(DirectoryDetector(pool, 4), phases)
        assert got == _run(_ReferenceDirectory(pool, 4), phases)
        assert [r.entry for r in got[0]] == [2]

    def test_shared_signature_across_fence_finality(self):
        """One occupant-key tuple in two phases: the write is unpublished
        in phase 0 and published by a later system fence in phase 1, so
        phase 0's verdicts must not carry over into phase 1."""
        write, read = int(AccessKind.WRITE), int(AccessKind.READ)
        pool = _pool(2, [2, 2, 2, 2])
        access = [("A", 0, 0, 0, write, 0, [(0, 0, 4), (1, 16, 4)]),
                  ("A", 1, 0, 0, read, 0, [(0, 0, 4), (1, 16, 4)])]
        phases = [access, access + [("F", 0, 0, 1)]]
        got = _run(DirectoryDetector(pool, 4), phases)
        assert got == _run(_ReferenceDirectory(pool, 4), phases)
        assert [(r.phase, r.entry) for r in got[0]] == [(0, 0), (0, 4)]
