"""Property suite: the span-segment HB oracle is exact (hypothesis).

:class:`repro.core.groundtruth.GroundTruthOracle` keeps its shadow per
access span segment, splits a segment only where a lane covers part of
it, judges each covered segment once and expands the reported races to
bytes. :class:`_ReferenceOracle` below is the plain form it must equal:
one history per byte, every byte judged, each race recorded as it is
found. Both judge through the one race rule
(:func:`repro.core.racerule.order` and
:func:`repro.core.racerule.lane_overlap`). On random traces both must
return the same race list, down to its order, the first thread and block
ids and the stale-L1 flags.
"""

from typing import Dict

from hypothesis import given, settings, strategies as st

from repro.common.types import AccessKind, MemSpace, RaceCategory
from repro.core.groundtruth import (
    GroundTruthOracle,
    OracleRace,
    _Endpoint,
)
from repro.core.racerule import Race, lane_overlap, order
from repro.harness.trace import TraceEvent

_READ = int(AccessKind.READ)
_ATOMIC = int(AccessKind.ATOMIC)


class _ByteState:
    __slots__ = ("writers", "readers", "atomic_pos", "next_pos")

    def __init__(self) -> None:
        self.writers: Dict[tuple, _Endpoint] = {}
        self.readers: Dict[tuple, _Endpoint] = {}
        self.atomic_pos: Dict[int, int] = {}
        self.next_pos = 0


class _ReferenceOracle(GroundTruthOracle):
    """One shadow state per byte, every byte of every lane judged."""

    def _report(self, space, byte, kind, category, prev, cur, stale=False):
        key = (space, byte, kind, category)
        if key not in self._races:
            self._races[key] = OracleRace(
                space=space, byte=byte, kind=kind, category=category,
                first_tid=prev.tid, second_tid=cur.tid,
                first_block=prev.bid, second_block=cur.bid,
                stale_l1=stale)

    def _on_access(self, ev):
        space = MemSpace(ev.space)
        self._intra_warp_waw(ev, space)
        kind = ev.access_kind
        epoch = self._block_epoch.get(ev.block_id, 0)
        if space == MemSpace.SHARED:
            shadow = self._shared.setdefault(ev.block_id, {})
            for lane, addr, size in (l[:3] for l in ev.lanes):
                ep = _Endpoint(ev.base_tid + lane, ev.warp_id, ev.block_id,
                               ev.sm_id, epoch, 0, frozenset(),
                               kind == _ATOMIC, kind != _READ)
                for byte in range(addr, addr + size):
                    self._byte_shared(shadow, byte, ep)
        else:
            fence = self._fence_now.get(ev.warp_id, 0)
            for i, (lane, addr, size, _sig, crit) in enumerate(ev.lane_rows()):
                locks = (frozenset(self._held.get(ev.base_tid + lane, ()))
                         if crit else frozenset())
                l1_hit = bool(ev.l1_hits[i]) if ev.l1_hits else False
                ep = _Endpoint(ev.base_tid + lane, ev.warp_id, ev.block_id,
                               ev.sm_id, epoch, fence, locks,
                               kind == _ATOMIC, kind != _READ)
                for byte in range(addr, addr + size):
                    self._byte_global(byte, ep, l1_hit)

    def _intra_warp_waw(self, ev, space):
        atomic = ev.access_kind == _ATOMIC
        race = lane_overlap(ev.access_kind != _READ, atomic,
                            space == MemSpace.SHARED)
        first: Dict[int, int] = {}
        for lane, addr, size in (l[:3] for l in ev.lanes):
            for byte in range(addr, addr + size):
                prev_lane = first.setdefault(byte, lane)
                if prev_lane == lane or race is None:
                    continue
                prev = _Endpoint(ev.base_tid + prev_lane, ev.warp_id,
                                 ev.block_id, ev.sm_id, 0, 0, frozenset(),
                                 atomic, True)
                cur = _Endpoint(ev.base_tid + lane, ev.warp_id,
                                ev.block_id, ev.sm_id, 0, 0, frozenset(),
                                atomic, True)
                self._report(space, byte, race.kind, race.category, prev,
                             cur)

    def _judge(self, space, byte, prevs, ep, chain, l1_hit):
        for prev in prevs:
            outcome = order(
                prev, ep, space == MemSpace.SHARED,
                self._fence_now.get(prev.wid, 0) != prev.fence,
                chain > prev.pos,
                self.stale_check and l1_hit and prev.sid != ep.sid,
                self.fence_check)
            if isinstance(outcome, Race):
                self._report(space, byte, outcome.kind, outcome.category,
                             prev, ep, outcome.stale)

    def _byte_shared(self, shadow, byte, ep):
        st_ = shadow.get(byte)
        if st_ is None:
            st_ = shadow[byte] = _ByteState()
        prevs = list(st_.writers.values())
        if ep.is_write:
            prevs += st_.readers.values()
        self._judge(MemSpace.SHARED, byte, prevs, ep, -1, False)
        (st_.writers if ep.is_write else st_.readers)[ep.wid] = ep

    def _byte_global(self, byte, ep, l1_hit):
        st_ = self._global.get(byte)
        if st_ is None:
            st_ = self._global[byte] = _ByteState()
        chain = st_.atomic_pos.get(ep.wid, -1)
        if ep.atomic:
            ep = _Endpoint(ep.tid, ep.wid, ep.bid, ep.sid, ep.epoch,
                           ep.fence, ep.locks, True, ep.is_write,
                           pos=st_.next_pos)
            st_.next_pos += 1
        if ep.is_write:
            self._judge(MemSpace.GLOBAL, byte, [*st_.writers.values(),
                                                *st_.readers.values()],
                        ep, chain, l1_hit)
            st_.writers[(ep.wid, ep.epoch, ep.locks, ep.atomic)] = ep
        else:
            self._judge(MemSpace.GLOBAL, byte, list(st_.writers.values()),
                        ep, chain, l1_hit)
            st_.readers[(ep.wid, ep.epoch, ep.locks)] = ep
        if ep.atomic:
            st_.atomic_pos[ep.wid] = ep.pos


# ---------------------------------------------------------------------------
# random traces
# ---------------------------------------------------------------------------

_KINDS = [_READ, int(AccessKind.WRITE), _ATOMIC]
#: two blocks of two warps; lanes 0-5 so lock holders recur
_BLOCKS, _WARPS, _LANES = 2, 2, 6
_LOCK_ADDRS = (0x100, 0x104)


@st.composite
def _lane(draw, aligned_words):
    if aligned_words:
        size, addr = 4, 4 * draw(st.integers(0, 5))
    else:
        size = draw(st.sampled_from((1, 2, 4, 8)))
        addr = draw(st.integers(0, 24 - size))
    return draw(st.integers(0, _LANES - 1)), addr, size, draw(st.booleans())


@st.composite
def _access(draw, aligned_words):
    block = draw(st.integers(0, _BLOCKS - 1))
    warp = block * _WARPS + draw(st.integers(0, _WARPS - 1))
    lanes = draw(st.lists(_lane(aligned_words), min_size=1, max_size=5))
    l1_hits = draw(st.one_of(st.none(), st.lists(
        st.booleans(), min_size=len(lanes), max_size=len(lanes))))
    return TraceEvent(
        kind="A", space=draw(st.sampled_from((0, 1))),
        access_kind=draw(st.sampled_from(_KINDS)),
        lanes=[(lane, addr, size, 0, crit)
               for lane, addr, size, crit in lanes],
        sm_id=draw(st.integers(0, 1)), block_id=block, warp_id=warp,
        base_tid=warp * 32, l1_hits=l1_hits)


@st.composite
def _marker(draw):
    block = draw(st.integers(0, _BLOCKS - 1))
    warp = block * _WARPS + draw(st.integers(0, _WARPS - 1))
    thread = warp * 32 + draw(st.integers(0, _LANES - 1))
    kind = draw(st.sampled_from("BFLUSEK"))
    if kind in "LU":
        return TraceEvent(kind=kind, thread=thread,
                          addr=draw(st.sampled_from(_LOCK_ADDRS)))
    return TraceEvent(kind=kind, block_id=block, warp_id=warp)


@st.composite
def _trace(draw):
    """Aligned word accesses first (the oracle's fast paths), then any
    mix of 1-8 byte lanes at any offset, atomics and markers."""
    events = [TraceEvent(kind="S", block_id=b) for b in range(_BLOCKS)]
    events += draw(st.lists(_access(True), max_size=6))
    events += draw(st.lists(st.one_of(_access(False), _access(True),
                                      _marker()), max_size=30))
    return events


def _both(events, fence, stale):
    ref = _ReferenceOracle(fence_check_enabled=fence,
                           stale_l1_check_enabled=stale).run(events)
    got = GroundTruthOracle(fence_check_enabled=fence,
                            stale_l1_check_enabled=stale).run(events)
    return got, ref


class TestSpanOracleExactness:
    @settings(max_examples=400, deadline=None)
    @given(_trace(), st.booleans(), st.booleans())
    def test_matches_reference(self, events, fence, stale):
        got, ref = _both(events, fence, stale)
        assert got == ref

    def test_partial_overlap_splits_segment(self):
        """An 8-byte write, then a 2-byte read inside it from another
        warp: only the read's bytes race, and a later 8-byte read
        straddling both halves races on every written byte."""
        def acc(warp, kind, lanes, block=0):
            return TraceEvent(kind="A", space=1, access_kind=kind,
                              lanes=[(lane, a, s, 0, False)
                                     for lane, a, s in lanes],
                              block_id=block, warp_id=warp,
                              base_tid=warp * 32)
        write, read = int(AccessKind.WRITE), _READ
        events = [TraceEvent(kind="S", block_id=0),
                  TraceEvent(kind="S", block_id=1),
                  acc(0, write, [(0, 4, 8)]),
                  acc(1, read, [(0, 6, 2)]),
                  acc(2, read, [(1, 2, 8)], block=1)]
        got, ref = _both(events, True, True)
        assert got == ref
        assert [(r.byte, r.second_tid) for r in got] == [
            (6, 32), (7, 32), (4, 65), (5, 65), (6, 65), (7, 65),
            (8, 65), (9, 65)]
        assert {r.category for r in got} == {RaceCategory.GLOBAL_BARRIER,
                                             RaceCategory.GLOBAL_FENCE}

    def test_atomic_chain_on_overlapping_spans(self):
        """Two warps RMW overlapping spans, then warp 1 reads: the chain
        orders the read after warp 0's atomic only where warp 1's own
        atomic came later."""
        def acc(warp, kind, addr, size):
            return TraceEvent(kind="A", space=1, access_kind=kind,
                              lanes=[(0, addr, size, 0, False)],
                              block_id=0, warp_id=warp, base_tid=warp * 32)
        events = [TraceEvent(kind="S", block_id=0),
                  acc(0, _ATOMIC, 0, 8),
                  acc(1, _ATOMIC, 4, 4),
                  acc(1, _READ, 0, 8)]
        got, ref = _both(events, True, True)
        assert got == ref
        assert [r.byte for r in got] == [0, 1, 2, 3]
