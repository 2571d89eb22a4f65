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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.common.types import AccessKind, MemSpace, RaceCategory, RaceKind

_READ = int(AccessKind.READ)
_ATOMIC = int(AccessKind.ATOMIC)

# trace record kinds (mirrors repro.harness.trace)
_ACCESS, _BARRIER, _FENCE, _BLOCK_START, _BLOCK_END, _KERNEL = (
    "A", "B", "F", "S", "E", "K")
_LOCK, _UNLOCK = "L", "U"


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


class _ByteState:
    """All writers and readers of one byte, deduplicated by epoch key.

    Endpoints with equal ``(warp, barrier epoch, lockset, atomic)`` are
    interchangeable for every pairwise ordering decision except fence
    suppression — and there the *latest* same-key write strictly
    dominates (an older one is separated from it by a fence, which
    suppresses its RAW pairs anyway). So one representative per key is
    exact, and state stays bounded by distinct epochs rather than by
    access count.
    """

    __slots__ = ("writers", "readers", "atomic_pos", "next_pos")

    def __init__(self) -> None:
        self.writers: Dict[tuple, _Endpoint] = {}
        self.readers: Dict[tuple, _Endpoint] = {}
        #: warp id -> position of its latest atomic in this byte's RMW
        #: serialization chain (trace order = partition order)
        self.atomic_pos: Dict[int, int] = {}
        self.next_pos = 0


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
        self._global: Dict[int, _ByteState] = {}
        self._shared: Dict[int, Dict[int, _ByteState]] = {}
        self._races: Dict[tuple, OracleRace] = {}

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
        key = (space, byte, kind, category)
        if key not in self._races:
            self._races[key] = OracleRace(
                space=space, byte=byte, kind=kind, category=category,
                first_tid=prev.tid, second_tid=cur.tid,
                first_block=prev.bid, second_block=cur.bid,
                stale_l1=stale)

    # ------------------------------------------------------------------
    # access processing

    def _on_access(self, ev: Any) -> None:
        space = MemSpace(ev.space)
        if space == MemSpace.SHARED:
            shadow = self._shared.get(ev.block_id)
            if shadow is None:
                shadow = self._shared.setdefault(ev.block_id, {})
            self._intra_warp_waw(ev, space)
            for lane, addr, size in (l[:3] for l in ev.lanes):
                kind = ev.access_kind
                is_write = kind != _READ
                ep = _Endpoint(
                    tid=ev.base_tid + lane, wid=ev.warp_id,
                    bid=ev.block_id, sid=ev.sm_id,
                    epoch=self._block_epoch.get(ev.block_id, 0),
                    fence=0, locks=frozenset(),
                    atomic=kind == _ATOMIC, is_write=is_write)
                for byte in range(addr, addr + size):
                    self._check_shared(shadow, byte, ep)
        else:
            self._intra_warp_waw(ev, space)
            epoch = self._block_epoch.get(ev.block_id, 0)
            fence = self._fence_now.get(ev.warp_id, 0)
            kind = ev.access_kind
            is_write = kind != _READ
            for i, (lane, addr, size, _sig, crit) in enumerate(ev.lane_rows()):
                locks = (frozenset(self._held.get(ev.base_tid + lane, ()))
                         if crit else frozenset())
                l1_hit = bool(ev.l1_hits[i]) if ev.l1_hits else False
                ep = _Endpoint(
                    tid=ev.base_tid + lane, wid=ev.warp_id,
                    bid=ev.block_id, sid=ev.sm_id, epoch=epoch,
                    fence=fence, locks=locks,
                    atomic=kind == _ATOMIC, is_write=is_write)
                for byte in range(addr, addr + size):
                    self._check_global(byte, ep, l1_hit)

    def _intra_warp_waw(self, ev: Any, space: MemSpace) -> None:
        """Same-instruction overlapping writes of one warp (pre-issue)."""
        if ev.access_kind == _READ:
            return
        atomic = ev.access_kind == _ATOMIC
        category = (RaceCategory.SHARED_BARRIER if space == MemSpace.SHARED
                    else RaceCategory.GLOBAL_BARRIER)
        first: Dict[int, int] = {}  # byte -> first writing lane
        for lane, addr, size in (l[:3] for l in ev.lanes):
            for byte in range(addr, addr + size):
                prev_lane = first.setdefault(byte, lane)
                if prev_lane == lane:
                    continue
                # concurrent global atomics to one location serialize
                if atomic and space != MemSpace.SHARED:
                    continue
                prev = _Endpoint(ev.base_tid + prev_lane, ev.warp_id,
                                 ev.block_id, ev.sm_id, 0, 0, frozenset(),
                                 atomic, True)
                cur = _Endpoint(ev.base_tid + lane, ev.warp_id,
                                ev.block_id, ev.sm_id, 0, 0, frozenset(),
                                atomic, True)
                self._report(space, byte, RaceKind.WAW, category, prev, cur)

    # ------------------------------------------------------------------
    # shared memory: pure happens-before within a barrier interval

    def _check_shared(self, shadow: Dict[int, _ByteState], byte: int,
                      ep: _Endpoint) -> None:
        st = shadow.get(byte)
        if st is None:
            st = shadow[byte] = _ByteState()
        if ep.is_write:
            for prev in st.writers.values():
                if prev.wid != ep.wid:
                    self._report(MemSpace.SHARED, byte, RaceKind.WAW,
                                 RaceCategory.SHARED_BARRIER, prev, ep)
            for prev in st.readers.values():
                if prev.wid != ep.wid:
                    self._report(MemSpace.SHARED, byte, RaceKind.WAR,
                                 RaceCategory.SHARED_BARRIER, prev, ep)
            st.writers[ep.wid] = ep
        else:
            for prev in st.writers.values():
                if prev.wid != ep.wid:
                    self._report(MemSpace.SHARED, byte, RaceKind.RAW,
                                 RaceCategory.SHARED_BARRIER, prev, ep)
            st.readers[ep.wid] = ep

    # ------------------------------------------------------------------
    # global memory: barriers + fences + locksets + atomics

    def _check_global(self, byte: int, ep: _Endpoint, l1_hit: bool) -> None:
        st = self._global.get(byte)
        if st is None:
            st = self._global[byte] = _ByteState()
        chain = st.atomic_pos.get(ep.wid, -1)
        if ep.atomic:
            # chain position is a per-byte property, so give this byte its
            # own endpoint copy (the caller shares one across the lane)
            ep = _Endpoint(ep.tid, ep.wid, ep.bid, ep.sid, ep.epoch,
                           ep.fence, ep.locks, True, ep.is_write,
                           pos=st.next_pos)
            st.next_pos += 1
        if ep.is_write:
            for prev in st.writers.values():
                self._pair(byte, prev, ep, l1_hit, chain)
            for prev in st.readers.values():
                self._pair(byte, prev, ep, l1_hit, chain)
            st.writers[(ep.wid, ep.epoch, ep.locks, ep.atomic)] = ep
        else:
            for prev in st.writers.values():
                self._pair(byte, prev, ep, l1_hit, chain)
            st.readers[(ep.wid, ep.epoch, ep.locks)] = ep
        if ep.atomic:
            st.atomic_pos[ep.wid] = ep.pos

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

        Per phase, the spans are cut at every span boundary into
        elementary segments: every byte of a segment is covered by the
        same spans in the same stream order, so the segment keeps the
        first span per ``(device, wid, kind, stamp)`` key and is judged
        once.
        Verdicts depend on those keys and the phase-final fence state,
        never on thread or block ids, so each distinct key tuple is
        judged once per phase.
        """
        races: List[CrossDeviceRace] = []
        for phase in sorted(self._spans):
            spans = self._spans[phase]
            cuts = {span[0] for span in spans}
            cuts.update([span[1] for span in spans])
            bounds = sorted(cuts)
            following = dict(zip(bounds, bounds[1:]))
            #: segment start byte -> first span per key, in stream order
            segments: Dict[int, Dict[_SpanKey, _Span]] = {}
            for span in spans:
                lo, hi, key, _, _ = span
                while lo < hi:
                    unique = segments.get(lo)
                    if unique is None:
                        segments[lo] = {key: span}
                    elif key not in unique:
                        unique[key] = span
                    lo = following[lo]
            memo: Dict[Tuple[_SpanKey, ...], List[_IndexVerdict]] = {}
            for lo, hi in following.items():
                unique = segments.get(lo)
                if unique is None or len(unique) < 2:
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
