"""Property suite: the multi-device oracle is exact (hypothesis).

:class:`repro.core.groundtruth.MultiDeviceOracle` keeps one span per
lane, cuts each phase's spans into elementary segments and judges each
distinct key tuple once per phase. :class:`_ReferenceOracle` below is
the plain form it must equal: every row of every byte kept, every byte
judged pairwise in sorted order. On random record streams both must
return the same races, down to the reported thread ids.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.common.types import AccessKind
from repro.core.groundtruth import (
    CrossDeviceRace,
    DeviceEndpoint,
    MultiDeviceOracle,
    cross_device_verdict,
)


class _ReferenceOracle:
    """Per-byte rows, judged pairwise for every byte."""

    def __init__(self) -> None:
        self._epoch: Dict[Tuple[int, int], int] = {}
        self._phase_final: Dict[Tuple[int, int, int], int] = {}
        self._bytes: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
        self._races: Dict[tuple, CrossDeviceRace] = {}

    def on_access(self, device, phase, wid, bid, kind, base_tid, lanes):
        stamp = self._epoch.get((device, wid), 0)
        self._phase_final[(device, phase, wid)] = stamp
        for lane, addr, size in lanes:
            row = (device, wid, base_tid + lane, bid, kind, stamp)
            for byte in range(addr, addr + size):
                self._bytes.setdefault((phase, byte), []).append(row)

    def on_fence(self, device, phase, wid, scope):
        if scope:
            epoch = self._epoch.get((device, wid), 0) + 1
            self._epoch[(device, wid)] = epoch
            self._phase_final[(device, phase, wid)] = epoch

    def _endpoint(self, phase, row):
        device, wid, tid, bid, kind, stamp = row
        final = self._phase_final.get((device, phase, wid), stamp)
        return DeviceEndpoint(device=device, phase=phase, wid=wid, tid=tid,
                              bid=bid, kind=kind,
                              sys_fenced_after=final > stamp)

    def finish(self):
        for (phase, byte), rows in sorted(self._bytes.items()):
            unique = {}
            for row in rows:
                unique.setdefault((row[0], row[1], row[4], row[5]), row)
            eps = [self._endpoint(phase, row) for row in unique.values()]
            for i, a in enumerate(eps):
                for b in eps[i + 1:]:
                    verdict = cross_device_verdict(a, b)
                    if verdict is None:
                        continue
                    kind, category = verdict
                    key = (phase, byte, kind, category)
                    if key not in self._races:
                        lo, hi = ((a, b) if a.device < b.device else (b, a))
                        self._races[key] = CrossDeviceRace(
                            byte=byte, kind=kind, category=category,
                            phase=phase,
                            first_device=lo.device,
                            second_device=hi.device,
                            first_tid=lo.tid, second_tid=hi.tid)
        return [self._races[key] for key in sorted(self._races)]


_KINDS = [int(AccessKind.READ), int(AccessKind.WRITE),
          int(AccessKind.ATOMIC)]


#: (lane sizes, window bytes): narrow lanes that all overlap, and wide
#: lanes in a wider window, so one span covers many segments
_NARROW = ((1, 2, 4, 8), 16)
_WIDE = ((1, 2, 4, 8, 16, 32), 64)


@st.composite
def _lane(draw, shape):
    sizes, window = shape
    size = draw(st.sampled_from(sizes))
    addr = draw(st.integers(0, window - size))
    return draw(st.integers(0, 31)), addr, size


@st.composite
def _op(draw, device, phase, shape, fences_only=False):
    wid = draw(st.integers(0, 2))
    if fences_only or draw(st.integers(0, 3)) == 0:
        return ("F", device, phase, wid, draw(st.integers(0, 1)))
    lanes = draw(st.lists(_lane(shape), min_size=1, max_size=6))
    return ("A", device, phase, wid, wid // 2, draw(st.sampled_from(_KINDS)),
            wid * 32, lanes)


@st.composite
def _stream(draw, shape=_NARROW, quiet_phases=False):
    """Phase-major records: fences of scope 0 and 1 fall before and
    after accesses of every kind, on 2-4 devices. With ``quiet_phases``
    a phase may also be fence-only or empty."""
    devices = draw(st.integers(2, 4))
    records = []
    for phase in range(draw(st.integers(1, 3))):
        mode = (draw(st.sampled_from(["mixed", "fences", "empty"]))
                if quiet_phases else "mixed")
        if mode == "empty":
            continue
        for device in range(devices):
            records.extend(draw(st.lists(
                _op(device, phase, shape, fences_only=mode == "fences"),
                max_size=8)))
    return records


def _feed(oracle, records):
    for record in records:
        if record[0] == "A":
            oracle.on_access(*record[1:])
        else:
            oracle.on_fence(*record[1:])
    return oracle.finish()


class TestOracleExactness:
    @settings(max_examples=300, deadline=None)
    @given(_stream())
    def test_matches_reference(self, records):
        assert _feed(MultiDeviceOracle(), records) == \
            _feed(_ReferenceOracle(), records)

    @settings(max_examples=300, deadline=None)
    @given(_stream(shape=_WIDE, quiet_phases=True))
    def test_matches_reference_wide_lanes_and_quiet_phases(self, records):
        assert _feed(MultiDeviceOracle(), records) == \
            _feed(_ReferenceOracle(), records)

    def test_wide_write_against_narrow_reads(self):
        """One 32-byte write on device 0 overlaps reads of 1-8 bytes at
        several offsets on devices 1 and 2: every covered byte races,
        each against the first read that covers it."""
        write, read = int(AccessKind.WRITE), int(AccessKind.READ)
        records = [
            ("A", 0, 0, 0, 0, write, 0, [(3, 8, 32)]),
            ("A", 1, 0, 0, 0, read, 0, [(0, 4, 8), (1, 20, 2)]),
            ("A", 2, 0, 1, 0, read, 32, [(0, 11, 1), (5, 36, 8)]),
            ("A", 1, 0, 2, 1, read, 64, [(7, 14, 4)]),
        ]
        races = _feed(MultiDeviceOracle(), records)
        assert races == _feed(_ReferenceOracle(), records)
        assert [r.byte for r in races] == (
            [8, 9, 10, 11, 14, 15, 16, 17, 20, 21, 36, 37, 38, 39])
        readers = {r.byte: (r.second_device, r.second_tid) for r in races}
        assert readers[8] == (1, 0) and readers[11] == (1, 0)
        assert readers[14] == (1, 71) and readers[20] == (1, 1)
        assert readers[36] == (2, 37)
        assert {(r.first_device, r.first_tid) for r in races} == {(0, 3)}

    def test_fence_between_writes_splits_signature(self):
        """A warp writes bytes 0-3, issues a system fence, then writes
        bytes 8-11; a peer reads both. The two writes differ only in
        their fence stamp, and only the second one races."""
        write, read = int(AccessKind.WRITE), int(AccessKind.READ)
        records = [
            ("A", 0, 0, 0, 0, write, 0, [(0, 0, 4)]),
            ("F", 0, 0, 0, 1),
            ("A", 0, 0, 0, 0, write, 0, [(0, 8, 4)]),
            ("A", 1, 0, 0, 0, read, 0, [(0, 0, 4), (1, 8, 4)]),
        ]
        races = _feed(MultiDeviceOracle(), records)
        assert races == _feed(_ReferenceOracle(), records)
        assert [r.byte for r in races] == [8, 9, 10, 11]

    def test_one_signature_two_fence_finalities(self):
        """The same key tuple judged in two phases: the write is
        unpublished in phase 0 and published by a later system fence in
        phase 1, so phase 0's verdicts must not leak into phase 1."""
        write, read = int(AccessKind.WRITE), int(AccessKind.READ)
        lanes = [(0, 0, 4), (1, 8, 4)]
        records = []
        for phase in (0, 1):
            records += [("A", 0, phase, 0, 0, write, 0, lanes),
                        ("A", 1, phase, 0, 0, read, 0, lanes)]
        records.append(("F", 0, 1, 0, 1))
        races = _feed(MultiDeviceOracle(), records)
        assert races == _feed(_ReferenceOracle(), records)
        assert {r.phase for r in races} == {0}
        assert len(races) == 8

    def test_fence_before_and_after_write(self):
        """A system fence after the write publishes it; one before does
        not; a device-scope fence never does."""
        lane = [(0, 0, 4)]
        for pre, post in ((0, 1), (1, 0), (0, 0), (1, 1)):
            records = [
                ("F", 0, 0, 0, pre),
                ("A", 0, 0, 0, 0, int(AccessKind.WRITE), 0, lane),
                ("F", 0, 0, 0, post),
                ("A", 1, 0, 0, 0, int(AccessKind.READ), 0, lane),
            ]
            races = _feed(MultiDeviceOracle(), records)
            assert races == _feed(_ReferenceOracle(), records)
            assert bool(races) == (post == 0)
