"""Exact happens-before + lockset race oracle over recorded traces.

The hardware detector approximates: shadow entries summarize access
history per *granule*, sync/fence epochs are stored in a handful of bits,
locksets are Bloom signatures, and every structure forgets on races and
refreshes. This module is the other end of the differential-fuzzing
scale: an offline detector that is **exact** over a recorded trace
(:mod:`repro.harness.trace`), at byte granularity, with unbounded
per-block barrier epochs, unbounded per-warp fence epochs, and precise
per-thread locksets reconstructed from the trace's lock markers.

Semantics (deliberately mirroring the architecture the paper detects
*for*, not the detector's finite-state approximation of it):

- two accesses by the same warp are ordered (lockstep execution);
- two accesses by the same block in different barrier epochs are ordered
  (``__syncthreads``); barrier epochs are counted exactly per block;
- a read of another warp's write is *suppressed* iff the writing warp
  issued a ``__threadfence`` after the write — the fence epoch is kept
  per warp, never reset (the race register file persists across
  launches), and never truncated;
- critical sections follow the paper's lockset rules pairwise: disjoint
  locksets on a conflict race (category iv); a common lock orders
  conflicts *except* a cross-warp read of an unfenced write (Fig. 2(b),
  reported as category iii); mixing protected and unprotected conflicting
  accesses races;
- two hardware atomics never race with each other (they serialize in the
  memory partition) — in **global** memory; the shared-memory table has
  no atomic exemption, and the oracle mirrors that;
- the serialization order of atomics on one location is a happens-before
  chain: a warp that performed an atomic on a byte is ordered after every
  earlier atomic in that byte's chain, so its *subsequent* accesses to
  the byte cannot race with those atomics (the ticket/"last block resets
  the counter" idiom, e.g. PSUM's single-pass partial-sum counter);
- same-instruction writes of one warp race iff their byte footprints
  overlap (the associative pre-issue check), with the atomic-atomic
  exemption in global memory only;
- a read served from a non-coherent L1 while the last writer sits on a
  different SM is reported stale (§IV-B) when the pair is unordered.

Race *categories* are assigned exactly as the detector assigns them
(the paper's i–iv taxonomy): SHARED_BARRIER for shared-memory races,
GLOBAL_BARRIER for same-block global races and all global WAW/WAR,
GLOBAL_FENCE for cross-block RAW and unfenced common-lock RAW,
GLOBAL_LOCKSET for critical-section violations. Unlike the detector, the
oracle never loses a pair to entry refreshes, signature aliasing, or
epoch wraparound — diffs against it are the fuzzer's measurement.

Verdicts are exact per byte, but the shadow state is kept per access
span segment: global memory and each block's shared memory map a
segment's first byte to one :class:`_Segment`, whose bytes have been
covered by the same lanes in the same order and so share one history.
A lane that matches a segment exactly finds it with one dict lookup; a
lane that covers only part of a segment splits it at the lane's edge,
and both halves start from copies of the same history. Each covered
segment is judged once, and the races it reports are expanded to its
bytes in the order a byte-at-a-time oracle would report them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, TypeVar)

from repro.common.types import AccessKind, MemSpace, RaceCategory, RaceKind

_READ = int(AccessKind.READ)
_ATOMIC = int(AccessKind.ATOMIC)

# trace record kinds (mirrors repro.harness.trace)
_ACCESS, _BARRIER, _FENCE, _BLOCK_START, _BLOCK_END, _KERNEL = (
    "A", "B", "F", "S", "E", "K")
_LOCK, _UNLOCK = "L", "U"

_NO_LOCKS: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class OracleRace:
    """One racing byte-level access pair found by the oracle."""

    space: MemSpace
    #: absolute device byte (global) or in-block shared offset
    byte: int
    kind: RaceKind
    category: RaceCategory
    first_tid: int
    second_tid: int
    first_block: int
    second_block: int
    stale_l1: bool = False

    def entry(self, granularity: int) -> int:
        """The shadow entry this byte falls in at ``granularity``."""
        return self.byte // granularity


class _Endpoint:
    """One byte-level access endpoint retained in the oracle's shadow."""

    __slots__ = ("tid", "wid", "bid", "sid", "epoch", "fence", "locks",
                 "atomic", "is_write", "pos")

    def __init__(self, tid: int, wid: int, bid: int, sid: int, epoch: int,
                 fence: int, locks: FrozenSet[int], atomic: bool,
                 is_write: bool, pos: int = 0) -> None:
        self.tid = tid
        self.wid = wid
        self.bid = bid
        self.sid = sid
        self.epoch = epoch
        self.fence = fence
        self.locks = locks
        self.atomic = atomic
        self.is_write = is_write
        #: position in the byte's atomic RMW serialization chain
        #: (meaningful only when ``atomic`` is set)
        self.pos = pos


class _Segment:
    """All writers and readers of the bytes ``[lo, hi)``, deduplicated
    by epoch key.

    Endpoints with equal ``(warp, barrier epoch, lockset, atomic)`` are
    interchangeable for every pairwise ordering decision except fence
    suppression — and there the *latest* same-key write strictly
    dominates (an older one is separated from it by a fence, which
    suppresses its RAW pairs anyway). So one representative per key is
    exact, and state stays bounded by distinct epochs rather than by
    access count.
    """

    __slots__ = ("lo", "hi", "writers", "readers", "atomic_pos", "next_pos")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi
        self.writers: Dict[tuple, _Endpoint] = {}
        self.readers: Dict[tuple, _Endpoint] = {}
        #: warp id -> position of its latest atomic in these bytes' RMW
        #: serialization chain (trace order = partition order)
        self.atomic_pos: Dict[int, int] = {}
        self.next_pos = 0

    def split(self, at: int) -> "_Segment":
        """Cut off and return ``[at, hi)`` with a copy of this history."""
        upper = _Segment(at, self.hi)
        upper.writers = self.writers.copy()
        upper.readers = self.readers.copy()
        upper.atomic_pos = self.atomic_pos.copy()
        upper.next_pos = self.next_pos
        self.hi = at
        return upper


#: one buffered report: (space, byte, kind, category, prev, cur, stale)
_Pending = Tuple[MemSpace, int, RaceKind, RaceCategory, _Endpoint,
                 _Endpoint, bool]


class GroundTruthOracle:
    """Run the exact detector over a trace; collect :class:`OracleRace`."""

    def __init__(self, fence_check_enabled: bool = True,
                 stale_l1_check_enabled: bool = True) -> None:
        self.fence_check = fence_check_enabled
        self.stale_check = stale_l1_check_enabled
        #: per-warp fence epoch; persists across kernel launches, exactly
        #: like the hardware race register file
        self._fence_now: Dict[int, int] = {}
        self._block_epoch: Dict[int, int] = {}
        self._held: Dict[int, List[int]] = {}   # thread -> held lock addrs
        #: segment start byte -> segment, for global memory and per block
        self._global: Dict[int, _Segment] = {}
        self._shared: Dict[int, Dict[int, _Segment]] = {}
        #: the widest lane seen: no segment is wider, which bounds the
        #: search for the segment a lane starts inside
        self._widest = 1
        #: per space, the one width every lane so far has had, each
        #: aligned to it (absent before the first lane, 0 once two lanes
        #: disagree): while it holds, every segment is such an aligned
        #: block, so a lane that finds no segment at its start overlaps
        #: none
        self._grain: Dict[MemSpace, int] = {}
        self._races: Dict[tuple, OracleRace] = {}
        #: reports on the segment being judged, keyed by its first byte
        self._pending: List[_Pending] = []

    # ------------------------------------------------------------------

    def run(self, events: Iterable) -> List[OracleRace]:
        """Process a full trace; returns deduplicated races in trace order."""
        for ev in events:
            kind = ev.kind
            if kind == _ACCESS:
                self._on_access(ev)
            elif kind == _BARRIER:
                self._block_epoch[ev.block_id] = \
                    self._block_epoch.get(ev.block_id, 0) + 1
                shared = self._shared.get(ev.block_id)
                if shared is not None:
                    shared.clear()
            elif kind == _FENCE:
                self._fence_now[ev.warp_id] = \
                    self._fence_now.get(ev.warp_id, 0) + 1
            elif kind == _LOCK:
                self._held.setdefault(ev.thread, []).append(ev.addr)
            elif kind == _UNLOCK:
                held = self._held.get(ev.thread)
                if held and ev.addr in held:
                    held.remove(ev.addr)
            elif kind == _BLOCK_START:
                self._block_epoch[ev.block_id] = 0
                self._shared[ev.block_id] = {}
            elif kind == _BLOCK_END:
                self._shared.pop(ev.block_id, None)
            elif kind == _KERNEL:
                # fresh launch: shadow state is invalidated; fence epochs
                # intentionally survive (the RRF is never reset)
                self._global.clear()
                self._shared.clear()
                self._block_epoch.clear()
                self._held.clear()
        return list(self._races.values())

    @property
    def races(self) -> List[OracleRace]:
        return list(self._races.values())

    # ------------------------------------------------------------------

    def _report(self, space: MemSpace, byte: int, kind: RaceKind,
                category: RaceCategory, prev: _Endpoint, cur: _Endpoint,
                stale: bool = False) -> None:
        """Buffer a race on the first byte of the span being judged;
        :meth:`_expand` records it on every byte of the span."""
        self._pending.append((space, byte, kind, category, prev, cur, stale))

    def _expand(self, width: int) -> None:
        """Record the buffered reports on ``width`` bytes each, byte-major
        — the order a byte-at-a-time judge reports them in."""
        races = self._races
        pending = self._pending
        for offset in range(width):
            for space, byte, kind, category, prev, cur, stale in pending:
                key = (space, byte + offset, kind, category)
                if key not in races:
                    races[key] = OracleRace(
                        space=space, byte=byte + offset, kind=kind,
                        category=category,
                        first_tid=prev.tid, second_tid=cur.tid,
                        first_block=prev.bid, second_block=cur.bid,
                        stale_l1=stale)
        pending.clear()

    def _cover(self, segments: Dict[int, _Segment], space: MemSpace,
               lo: int, hi: int) -> List[_Segment]:
        """The segments that exactly tile ``[lo, hi)``, in byte order.

        A segment that reaches past either edge is split there; bytes no
        segment holds yet get a fresh one per gap.
        """
        seg = segments.get(lo)
        if seg is not None and seg.hi == hi:
            return [seg]
        width = hi - lo
        if width <= 0:
            return []
        grain = self._grain.get(space)
        if grain != width or lo % width:
            self._grain[space] = (width if grain is None and not lo % width
                                  else 0)
        elif seg is None:
            seg = segments[lo] = _Segment(lo, hi)
            return [seg]
        if width > self._widest:
            self._widest = width
        if seg is None:
            # the nearest segment start below lo is the only one that
            # can reach past it
            for start in range(lo - 1, lo - self._widest, -1):
                below = segments.get(start)
                if below is not None:
                    if below.hi > lo:
                        segments[lo] = below.split(lo)
                    break
        tiles: List[_Segment] = []
        while lo < hi:
            seg = segments.get(lo)
            if seg is None:
                end = lo + 1
                while end < hi and end not in segments:
                    end += 1
                seg = segments[lo] = _Segment(lo, end)
            elif seg.hi > hi:
                segments[hi] = seg.split(hi)
            tiles.append(seg)
            lo = seg.hi
        return tiles

    # ------------------------------------------------------------------
    # access processing

    def _on_access(self, ev: Any) -> None:
        space = MemSpace(ev.space)
        self._intra_warp_waw(ev, space)
        kind = ev.access_kind
        is_write = kind != _READ
        atomic = kind == _ATOMIC
        base, wid, bid, sid = ev.base_tid, ev.warp_id, ev.block_id, ev.sm_id
        epoch = self._block_epoch.get(bid, 0)
        pending = self._pending
        if space == MemSpace.SHARED:
            shadow = self._shared.get(bid)
            if shadow is None:
                shadow = self._shared.setdefault(bid, {})
            for lane, addr, size in (l[:3] for l in ev.lanes):
                ep = _Endpoint(base + lane, wid, bid, sid, epoch, 0,
                               _NO_LOCKS, atomic, is_write)
                hit = shadow.get(addr)
                for seg in ((hit,) if hit is not None and hit.hi == addr + size
                            else self._cover(shadow, space, addr,
                                            addr + size)):
                    self._check_shared(seg, ep)
                    if pending:
                        self._expand(seg.hi - seg.lo)
        else:
            shadow = self._global
            fence = self._fence_now.get(wid, 0)
            l1_hits = ev.l1_hits
            for i, (lane, addr, size, _sig, crit) in enumerate(ev.lane_rows()):
                locks = (frozenset(self._held.get(base + lane, ()))
                         if crit else _NO_LOCKS)
                l1_hit = bool(l1_hits[i]) if l1_hits else False
                ep = _Endpoint(base + lane, wid, bid, sid, epoch, fence,
                               locks, atomic, is_write)
                hit = shadow.get(addr)
                for seg in ((hit,) if hit is not None and hit.hi == addr + size
                            else self._cover(shadow, space, addr,
                                            addr + size)):
                    self._check_global(seg, ep, l1_hit)
                    if pending:
                        self._expand(seg.hi - seg.lo)

    def _intra_warp_waw(self, ev: Any, space: MemSpace) -> None:
        """Same-instruction overlapping writes of one warp (pre-issue).

        Each byte belongs to the first lane that writes it; a later lane
        writing it races with that first lane.
        """
        if ev.access_kind == _READ:
            return
        # concurrent global atomics to one location serialize
        if ev.access_kind == _ATOMIC and space != MemSpace.SHARED:
            return
        lanes = [l[:3] for l in ev.lanes]
        reach = None
        for lo, hi in sorted((addr, addr + size) for _, addr, size in lanes):
            if reach is not None and lo < reach:
                break
            reach = hi
        else:
            return  # no two lanes overlap
        atomic = ev.access_kind == _ATOMIC
        category = (RaceCategory.SHARED_BARRIER if space == MemSpace.SHARED
                    else RaceCategory.GLOBAL_BARRIER)
        owned: List[Tuple[int, int, int]] = []  # (lo, hi, first lane)
        for lane, addr, size in lanes:
            lo, hi = addr, addr + size
            taken = sorted((max(o_lo, lo), min(o_hi, hi), owner)
                           for o_lo, o_hi, owner in owned
                           if o_lo < hi and lo < o_hi)
            for t_lo, t_hi, owner in taken:
                if lo < t_lo:
                    owned.append((lo, t_lo, lane))
                lo = t_hi
                if owner == lane:
                    continue
                prev = _Endpoint(ev.base_tid + owner, ev.warp_id,
                                 ev.block_id, ev.sm_id, 0, 0, frozenset(),
                                 atomic, True)
                cur = _Endpoint(ev.base_tid + lane, ev.warp_id,
                                ev.block_id, ev.sm_id, 0, 0, frozenset(),
                                atomic, True)
                self._report(space, t_lo, RaceKind.WAW, category, prev, cur)
                self._expand(t_hi - t_lo)
            if lo < hi:
                owned.append((lo, hi, lane))

    # ------------------------------------------------------------------
    # shared memory: pure happens-before within a barrier interval

    def _check_shared(self, seg: _Segment, ep: _Endpoint) -> None:
        byte = seg.lo
        if ep.is_write:
            for prev in seg.writers.values():
                if prev.wid != ep.wid:
                    self._report(MemSpace.SHARED, byte, RaceKind.WAW,
                                 RaceCategory.SHARED_BARRIER, prev, ep)
            for prev in seg.readers.values():
                if prev.wid != ep.wid:
                    self._report(MemSpace.SHARED, byte, RaceKind.WAR,
                                 RaceCategory.SHARED_BARRIER, prev, ep)
            seg.writers[ep.wid] = ep
        else:
            for prev in seg.writers.values():
                if prev.wid != ep.wid:
                    self._report(MemSpace.SHARED, byte, RaceKind.RAW,
                                 RaceCategory.SHARED_BARRIER, prev, ep)
            seg.readers[ep.wid] = ep

    # ------------------------------------------------------------------
    # global memory: barriers + fences + locksets + atomics

    def _check_global(self, seg: _Segment, ep: _Endpoint,
                      l1_hit: bool) -> None:
        byte = seg.lo
        chain = seg.atomic_pos.get(ep.wid, -1)
        if ep.atomic:
            # chain position is a per-segment property, so give this
            # segment its own endpoint copy (the caller shares one across
            # the lane)
            ep = _Endpoint(ep.tid, ep.wid, ep.bid, ep.sid, ep.epoch,
                           ep.fence, ep.locks, True, ep.is_write,
                           pos=seg.next_pos)
            seg.next_pos += 1
        if ep.is_write:
            for prev in seg.writers.values():
                self._pair(byte, prev, ep, l1_hit, chain)
            for prev in seg.readers.values():
                self._pair(byte, prev, ep, l1_hit, chain)
            seg.writers[(ep.wid, ep.epoch, ep.locks, ep.atomic)] = ep
        else:
            for prev in seg.writers.values():
                self._pair(byte, prev, ep, l1_hit, chain)
            seg.readers[(ep.wid, ep.epoch, ep.locks)] = ep
        if ep.atomic:
            seg.atomic_pos[ep.wid] = ep.pos

    def _pair(self, byte: int, prev: _Endpoint, cur: _Endpoint,
              l1_hit: bool, chain: int = -1) -> None:
        """Exact pairwise dispatch; at least one endpoint is a write.

        ``chain`` is the position of ``cur``'s warp's latest atomic in
        this byte's RMW serialization chain (-1 when it has none).
        """
        # happens-before: lockstep warps, and barriers within a block
        if prev.wid == cur.wid:
            return
        if prev.bid == cur.bid and prev.epoch != cur.epoch:
            return
        # atomic-chain happens-before: cur's warp performed an atomic on
        # this byte *after* prev's atomic, so the serialized RMW chain
        # orders prev before everything cur's warp did since
        if prev.atomic and chain > prev.pos:
            return

        raw = prev.is_write and not cur.is_write
        war = not prev.is_write  # then cur must be the write
        kind = (RaceKind.RAW if raw
                else RaceKind.WAR if war else RaceKind.WAW)

        # lockset rules take priority inside critical sections (§III-B)
        if prev.locks or cur.locks:
            if prev.locks and cur.locks:
                if prev.locks & cur.locks:
                    # common lock orders the pair — except a read of a
                    # write whose producer never fenced (Fig. 2(b))
                    if (raw and self.fence_check
                            and self._fence_now.get(prev.wid, 0)
                            == prev.fence):
                        self._report(MemSpace.GLOBAL, byte, RaceKind.RAW,
                                     RaceCategory.GLOBAL_FENCE, prev, cur)
                    return
                self._report(MemSpace.GLOBAL, byte, kind,
                             RaceCategory.GLOBAL_LOCKSET, prev, cur)
                return
            # protected/unprotected mixing on a conflict
            self._report(MemSpace.GLOBAL, byte, kind,
                         RaceCategory.GLOBAL_LOCKSET, prev, cur)
            return

        # serialized atomic RMW chains do not race with each other
        if prev.atomic and cur.atomic:
            return

        if raw:
            # non-coherent L1: the read may return the pre-write value
            # even when a fence ordered the pair
            if (self.stale_check and l1_hit and prev.sid != cur.sid):
                self._report(MemSpace.GLOBAL, byte, RaceKind.RAW,
                             RaceCategory.GLOBAL_FENCE, prev, cur,
                             stale=True)
                return
            if (self.fence_check
                    and self._fence_now.get(prev.wid, 0) != prev.fence):
                return  # producer fenced after the write
            category = (RaceCategory.GLOBAL_BARRIER
                        if prev.bid == cur.bid else
                        RaceCategory.GLOBAL_FENCE)
            self._report(MemSpace.GLOBAL, byte, RaceKind.RAW, category,
                         prev, cur)
            return
        self._report(MemSpace.GLOBAL, byte, kind,
                     RaceCategory.GLOBAL_BARRIER, prev, cur)


def oracle_races(events: Iterable,
                 fence_check_enabled: bool = True,
                 stale_l1_check_enabled: bool = True) -> List[OracleRace]:
    """Convenience wrapper: run the oracle over a trace, return the races."""
    oracle = GroundTruthOracle(fence_check_enabled=fence_check_enabled,
                               stale_l1_check_enabled=stale_l1_check_enabled)
    return oracle.run(events)


def oracle_entries(races: Iterable[OracleRace],
                   shared_granularity: int,
                   global_granularity: int,
                   shared_enabled: bool = True,
                   global_enabled: bool = True
                   ) -> "set[Tuple[str, int]]":
    """Map oracle races to ``(space_name, entry)`` keys at a detector's
    granularities — the unit the differential harness diffs on.

    The entry level (rather than ``(entry, kind)``) is deliberate: after
    a reported race the detector re-initializes the entry with the racing
    access as its new owner, so the *kinds* of follow-on reports are
    state- and order-dependent in both directions, while the conflicting
    entries themselves are robust.
    """
    out: set = set()
    for r in races:
        if r.space == MemSpace.SHARED:
            if shared_enabled:
                out.add((r.space.name, r.entry(shared_granularity)))
        elif global_enabled:
            out.add((r.space.name, r.entry(global_granularity)))
    return out


def detector_entries(log: Any, shared_enabled: bool = True,
                     global_enabled: bool = True
                     ) -> "set[Tuple[str, int]]":
    """The same ``(space_name, entry)`` keys from a detector RaceLog."""
    out: set = set()
    for r in log.reports:
        if r.space == MemSpace.SHARED:
            if shared_enabled:
                out.add((r.space.name, int(r.entry)))
        elif global_enabled:
            out.add((r.space.name, int(r.entry)))
    return out


_S = TypeVar("_S", bound=Tuple)


def cut_segments(spans: Sequence[_S]
                 ) -> Iterator[Tuple[int, int, List[_S]]]:
    """Cut half-open spans ``(lo, hi, ...)`` into elementary segments.

    Every span boundary is a cut, so all bytes of a segment are covered
    by the same spans. Yields ``(lo, hi, covering)`` for each covered
    segment in byte order, with ``covering`` in input order.
    """
    cuts = {span[0] for span in spans}
    cuts.update([span[1] for span in spans])
    bounds = sorted(cuts)
    following = dict(zip(bounds, bounds[1:]))
    cover: Dict[int, List[_S]] = {}
    for span in spans:
        lo, hi = span[0], span[1]
        while lo < hi:
            covering = cover.get(lo)
            if covering is None:
                cover[lo] = [span]
            else:
                covering.append(span)
            lo = following[lo]
    for lo in bounds:
        covering = cover.get(lo)
        if covering is not None:
            yield lo, following[lo], covering


# ---------------------------------------------------------------------------
# cross-device extension (repro.multigpu, docs/MULTIGPU.md)
# ---------------------------------------------------------------------------
#
# Multi-GPU runs open a race class the single-device oracle never sees:
# conflicts between devices on shared (peer-mapped or unified) pages. The
# semantics mirror the single-device model one level up:
#
# - kernels launched on different devices within one *host phase* are
#   logically concurrent (the host never orders them); the host-side
#   synchronize between phases orders everything, exactly like a barrier
#   orders block epochs;
# - a device-scope fence (``__threadfence``) publishes nothing to peers;
#   only a **system-scope** fence (``__threadfence_system``) does — so the
#   single-device fence-suppression rule lifts to: a cross-device W/R
#   conflict is suppressed iff the writing warp issued a system-scope
#   fence after the write, within the same phase;
# - system atomics serialize at the page's home node, so two cross-device
#   atomics never race (the global-memory atomic exemption, lifted);
# - cross-device W/W conflicts in one phase always race (fences do not
#   order writes against writes, matching the single-device model).
#
# Cross-device W/R conflicts are canonically reported as RAW regardless of
# which endpoint the analysis encounters first: the two accesses are
# logically concurrent, so "the read may observe the pre-write value" is
# the failure either way. This keeps the verdict order-independent, which
# is what makes the byte-level oracle and the granule-level directory
# detector (repro.multigpu.detector) provably agree on entry sets.


@dataclass(frozen=True)
class DeviceEndpoint:
    """One access endpoint in the cross-device analysis (plain data)."""

    device: int
    phase: int
    wid: int             #: device-local warp id
    tid: int             #: device-local grid thread id
    bid: int
    kind: int            #: AccessKind int value
    sys_fenced_after: bool = False

    @property
    def is_write(self) -> bool:
        return self.kind != _READ


def cross_device_verdict(a: DeviceEndpoint, b: DeviceEndpoint
                         ) -> Optional[Tuple[RaceKind, RaceCategory]]:
    """Shared pair-verdict for cross-device conflicts (order-independent).

    Returns ``None`` when the pair is ordered or exempt, else the
    ``(kind, category)`` to report. Both the byte-exact
    :class:`MultiDeviceOracle` and the granule-level directory detector
    call this — the cross-GPU race rule exists exactly once.
    """
    if a.device == b.device or a.phase != b.phase:
        return None
    a_w = a.kind != _READ
    b_w = b.kind != _READ
    if not (a_w or b_w):
        return None
    if a.kind == _ATOMIC and b.kind == _ATOMIC:
        return None  # system atomics serialize at the home node
    if a_w and b_w:
        return (RaceKind.WAW, RaceCategory.XGPU_SHARING)
    writer = a if a_w else b
    if writer.sys_fenced_after:
        return None  # published by a system-scope fence within the phase
    return (RaceKind.RAW, RaceCategory.XGPU_FENCE)


@dataclass(frozen=True)
class CrossDeviceRace:
    """One cross-device racing pair (byte-level, from the oracle)."""

    byte: int
    kind: RaceKind
    category: RaceCategory
    phase: int
    first_device: int
    second_device: int
    first_tid: int
    second_tid: int

    def entry(self, granularity: int) -> int:
        return self.byte // granularity


#: the verdict-relevant part of an access: (device, wid, kind, stamp)
_SpanKey = Tuple[int, int, int, int]
#: one lane's access span: (lo, hi, key, tid, bid), bytes [lo, hi)
_Span = Tuple[int, int, _SpanKey, int, int]
#: one judged verdict: (kind, category, lo_index, hi_index) into a
#: segment's first span per key
_IndexVerdict = Tuple[RaceKind, RaceCategory, int, int]


class MultiDeviceOracle:
    """Exact byte-granularity cross-device oracle.

    Consumes plain access/fence records (no live simulator objects) in any
    per-device order that preserves each warp's program order, defers all
    verdicts to :meth:`finish` — fence publication is a *phase-final*
    property, so judging online would depend on the interleaving of
    logically concurrent streams — and reports deduplicated
    :class:`CrossDeviceRace` pairs via :func:`cross_device_verdict`.

    The state is one access span per lane, not one row per byte: bytes
    that the same lanes cover always get the same verdicts, so
    :meth:`finish` judges per elementary segment and expands to bytes
    only for the races it reports.
    """

    def __init__(self) -> None:
        #: (device, wid) -> running system-scope fence epoch
        self._epoch: Dict[Tuple[int, int], int] = {}
        #: (device, phase, wid) -> epoch at that warp's last record in phase
        self._phase_final: Dict[Tuple[int, int, int], int] = {}
        #: phase -> one span per lane, in stream order
        self._spans: Dict[int, List[_Span]] = {}

    def on_access(self, device: int, phase: int, wid: int, bid: int,
                  kind: int, base_tid: int,
                  lanes: Iterable[Tuple[int, int, int]]) -> None:
        """One warp access: ``lanes`` yields ``(lane, addr, size)`` rows."""
        stamp = self._epoch.get((device, wid), 0)
        self._phase_final[(device, phase, wid)] = stamp
        key = (device, wid, kind, stamp)
        spans = self._spans.setdefault(phase, [])
        for lane, addr, size in lanes:
            spans.append((addr, addr + size, key, base_tid + lane, bid))

    def on_fence(self, device: int, phase: int, wid: int, scope: int) -> None:
        """One fence; only system scope (1) publishes across devices."""
        if scope:
            epoch = self._epoch.get((device, wid), 0) + 1
            self._epoch[(device, wid)] = epoch
            self._phase_final[(device, phase, wid)] = epoch

    # ------------------------------------------------------------------

    def finish(self) -> List[CrossDeviceRace]:
        """Judge every cross-device pair; returns races sorted by
        ``(phase, byte, kind, category)``.

        Per phase, :func:`cut_segments` cuts the spans at every span
        boundary into elementary segments: every byte of a segment is
        covered by the same spans in the same stream order, so the
        segment keeps the first span per ``(device, wid, kind, stamp)``
        key and is judged once.
        Verdicts depend on those keys and the phase-final fence state,
        never on thread or block ids, so each distinct key tuple is
        judged once per phase.
        """
        races: List[CrossDeviceRace] = []
        for phase in sorted(self._spans):
            memo: Dict[Tuple[_SpanKey, ...], List[_IndexVerdict]] = {}
            for lo, hi, covering in cut_segments(self._spans[phase]):
                if len(covering) < 2:
                    continue
                # first span per key, in stream order
                unique: Dict[_SpanKey, _Span] = {}
                for span in covering:
                    if span[2] not in unique:
                        unique[span[2]] = span
                if len(unique) < 2:
                    continue
                firsts = list(unique.values())
                sig = tuple(unique)
                verdicts = memo.get(sig)
                if verdicts is None:
                    verdicts = memo[sig] = self._judge(phase, firsts)
                for byte in range(lo, hi):
                    for kind, category, i, j in verdicts:
                        races.append(CrossDeviceRace(
                            byte=byte, kind=kind, category=category,
                            phase=phase,
                            first_device=firsts[i][2][0],
                            second_device=firsts[j][2][0],
                            first_tid=firsts[i][3], second_tid=firsts[j][3]))
        return races

    def _judge(self, phase: int, firsts: List[_Span]) -> List[_IndexVerdict]:
        """The first racing pair per ``(kind, category)`` among one
        segment's first spans per key, as ``(kind, category, lo, hi)``
        indices (lo: lower device), sorted by ``(kind, category)``."""
        keys = [span[2] for span in firsts]
        if (len({key[0] for key in keys}) < 2
                or all(key[2] == _READ for key in keys)):
            return []
        eps: List[DeviceEndpoint] = []
        for _, _, (device, wid, kind, stamp), tid, bid in firsts:
            final = self._phase_final.get((device, phase, wid), stamp)
            eps.append(DeviceEndpoint(device=device, phase=phase, wid=wid,
                                      tid=tid, bid=bid, kind=kind,
                                      sys_fenced_after=final > stamp))
        first: Dict[Tuple[RaceKind, RaceCategory], Tuple[int, int]] = {}
        for i, a in enumerate(eps):
            for j in range(i + 1, len(eps)):
                b = eps[j]
                verdict = cross_device_verdict(a, b)
                if verdict is not None and verdict not in first:
                    first[verdict] = (i, j) if a.device < b.device else (j, i)
        return [(kind, category, i, j)
                for (kind, category), (i, j) in sorted(first.items())]


def cross_device_entries(races: Iterable[CrossDeviceRace],
                         granularity: int) -> "set[Tuple[str, int]]":
    """Cross-device races as ``("XGPU", entry)`` diff keys.

    The entry level is the unit the multi-GPU differential harness diffs
    on, for the same robustness reasons as :func:`oracle_entries`.
    """
    return {("XGPU", r.entry(granularity)) for r in races}
