"""Shared-memory shadow table: the Fig. 3 state machine.

Each shared-memory shadow entry holds ``(tid, M, S)``:

- **State 1** ``M=1, S=1`` — virgin (no access since the last barrier);
- **State 2** ``M=0, S=0`` — read by exactly the thread in ``tid``;
- **State 3** ``M=1, S=0`` — written (at least once) by ``tid``;
- **State 4** ``M=0, S=1`` — read by threads of more than one warp.

Races are reported only between threads of *different warps* (threads of a
warp execute in lockstep and cannot race across instructions), except that
same-instruction WAW between lanes of one warp is caught before issue
(:meth:`SharedShadowTable.intra_warp_waw`). When dynamic warp re-grouping is
enabled, warp membership is unstable and comparisons fall back to thread
identity (§III-A).

Barriers reset every entry of the block to virgin. Fences and locksets are
evaluated only for global memory (§VI-C2), so this table is the pure
happens-before detector.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.common.types import (
    AccessKind,
    MemSpace,
    RaceCategory,
    RaceKind,
    WarpAccess,
)
from repro.core.granularity import GranularityMap
from repro.core.races import RaceLog

#: field positions in a stored entry record ``[tid, wid, M, S]``
TID, WID, M, S = range(4)


class SharedEntry(NamedTuple):
    """Read-only view of one shared shadow entry."""

    tid: int
    wid: int
    M: bool
    S: bool


#: what a missing key in the store means: State 1, no owner
VIRGIN = SharedEntry(-1, -1, True, True)


def _overlapping_write(seen: dict, entry: int,
                       la: Any) -> Optional[object]:
    """Register write lane ``la`` under ``entry``; return a previously
    registered lane whose byte footprint overlaps it (None otherwise)."""
    bucket = seen.get(entry)
    if bucket is None:
        seen[entry] = [la]
        return None
    lo = la.addr
    hi = lo + la.size
    for prev in bucket:
        if lo < prev.addr + prev.size and prev.addr < hi:
            return prev
    bucket.append(la)
    return None


class SharedShadowTable:
    """Shadow entries for one thread block's shared memory.

    Entries live in a sparse store: ``store`` maps an entry index to its
    ``[tid, wid, M, S]`` record, and a missing key is a virgin entry. A
    barrier's flash reset is then one ``clear()``, and a block that
    touches a few words of a large allocation holds only those records.
    """

    def __init__(self, region_bytes: int, granularity: int,
                 log: RaceLog, regroup: bool = False) -> None:
        self.gmap = GranularityMap(granularity)
        self.n = self.gmap.num_entries(region_bytes)
        self.log = log
        # under re-grouping ownership is per-thread and the warp-level
        # precondition of check() does not apply: run the scalar walk
        self.regroup = regroup
        self.store: Dict[int, List[Any]] = {}
        self.resets = 0

    def entry(self, index: int) -> SharedEntry:
        """State of entry ``index``; reading a virgin entry stores nothing."""
        rec = self.store.get(index)
        return VIRGIN if rec is None else SharedEntry(*rec)

    # ------------------------------------------------------------------

    def barrier_reset(self) -> int:
        """Invalidate all entries at a barrier; returns entries reset.

        The hardware flash-resets all ``n`` entries (which is what the
        return value prices); the store only has to forget its records.
        """
        self.store.clear()
        self.resets += 1
        return self.n

    # ------------------------------------------------------------------

    def intra_warp_waw(self, access: WarpAccess) -> int:
        """Same-instruction WAW: two lanes of one warp write one *location*.

        The RDU checks simultaneous requests to the same location
        associatively before issue (§III-A / §IV-B). The comparison is on
        byte footprints, not shadow entries: a warp whose lanes write
        successive addresses covered by one coarse entry is implicitly
        synchronized and must not be reported (§VI-A1). Returns the number
        of distinct new races reported.
        """
        if access.kind == AccessKind.READ:
            return 0
        seen: dict = {}
        new = 0
        for entry, la in self.gmap.lanes_to_entries(access.lanes):
            if la.kind == AccessKind.READ:
                continue
            prev = _overlapping_write(seen, entry, la)
            if prev is None:
                continue
            if self.log.trip(
                RaceCategory.SHARED_BARRIER, RaceKind.WAW, MemSpace.SHARED,
                entry, la.addr,
                owner_tid=access.thread_id(prev.lane),
                access_tid=access.thread_id(la.lane),
                owner_block=access.block_id,
                access_block=access.block_id,
                pc=access.pc,
            ):
                new += 1
        return new

    def check(self, access: WarpAccess) -> int:
        """Run the state machine for every (entry, lane) of a warp access.

        Returns the number of distinct new races reported. When the
        access's lanes share its kind and map to distinct single entries,
        no two lanes can overlap, so the same-instruction WAW check is
        skipped and the lanes walk the state machine directly; the result
        is identical to :meth:`_check_scalar`.
        """
        if not self.regroup:
            entries = self.gmap.distinct_entries(access.lanes, access.kind)
            if entries is not None:
                return self._walk(access, zip(entries, access.lanes))
        return self._check_scalar(access)

    def _check_scalar(self, access: WarpAccess) -> int:
        """Reference per-(entry, lane) state machine walk."""
        new = self.intra_warp_waw(access)
        return new + self._walk(access,
                                self.gmap.lanes_to_entries(access.lanes))

    def _walk(self, access: WarpAccess,
              pairs: Iterable[Tuple[int, Any]]) -> int:
        """Check ``(entry, lane)`` pairs in order; returns new races."""
        new = 0
        wid = access.warp_id
        base_tid = access.base_tid
        check_one = self._check_one
        for entry, la in pairs:
            tid = base_tid + la.lane
            is_write = la.kind != AccessKind.READ
            race = check_one(entry, tid, wid, is_write)
            if race is None:
                continue
            if self.log.trip(
                RaceCategory.SHARED_BARRIER, race, MemSpace.SHARED,
                entry, la.addr,
                owner_tid=self.store[entry][TID],
                access_tid=tid,
                owner_block=access.block_id,
                access_block=access.block_id,
                pc=access.pc,
            ):
                new += 1
            # after reporting, a write takes ownership so later
            # conflicts are still observable
            if is_write:
                self.store[entry] = [tid, wid, True, False]
        return new

    # ------------------------------------------------------------------

    def _check_one(self, entry: int, tid: int, wid: int,
                   is_write: bool) -> Optional[RaceKind]:
        rec = self.store.get(entry)
        if rec is None:  # State 1: virgin
            self.store[entry] = [tid, wid, is_write, False]
            return None

        # owner comparison: by warp normally, by thread under re-grouping
        same_owner = rec[TID] == tid if self.regroup else rec[WID] == wid
        m = rec[M]
        s = rec[S]

        if not m and not s:  # State 2: single reader
            if not is_write:
                if not same_owner:
                    rec[S] = True
                return None
            if same_owner:
                # same warp's ordered write upgrades the entry
                self.store[entry] = [tid, wid, True, False]
                return None
            return RaceKind.WAR

        if m:  # State 3: written by owner (no record holds M=1, S=1)
            if same_owner:
                if is_write:
                    rec[TID] = tid  # latest writer
                return None
            return RaceKind.RAW if not is_write else RaceKind.WAW

        # State 4: read by multiple warps
        if not is_write:
            return None
        return RaceKind.WAR
