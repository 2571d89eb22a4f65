"""Property suite: the multi-device oracle is exact (hypothesis).

:class:`repro.core.groundtruth.MultiDeviceOracle` skips rows that
cannot change a verdict and judges each repeated byte signature once.
:class:`_ReferenceOracle` below is the plain form it must equal: every
row of every byte kept, every byte judged pairwise in sorted order. On
random record streams both must return the same races, down to the
reported thread ids.
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


@st.composite
def _lane(draw):
    size = draw(st.sampled_from([1, 2, 4, 8]))
    # a 16-byte window keeps accesses of every size overlapping
    addr = draw(st.integers(0, 16 - size))
    return draw(st.integers(0, 31)), addr, size


@st.composite
def _op(draw, device, phase):
    wid = draw(st.integers(0, 2))
    if draw(st.integers(0, 3)) == 0:
        return ("F", device, phase, wid, draw(st.integers(0, 1)))
    lanes = draw(st.lists(_lane(), min_size=1, max_size=6))
    return ("A", device, phase, wid, wid // 2, draw(st.sampled_from(_KINDS)),
            wid * 32, lanes)


@st.composite
def _stream(draw):
    """Phase-major records: fences of scope 0 and 1 fall before and
    after accesses of every kind, on 2-4 devices."""
    devices = draw(st.integers(2, 4))
    records = []
    for phase in range(draw(st.integers(1, 3))):
        for device in range(devices):
            records.extend(draw(st.lists(_op(device, phase), max_size=8)))
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
