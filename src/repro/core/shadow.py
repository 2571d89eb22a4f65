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

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.common.types import (
    AccessKind,
    MemSpace,
    RaceCategory,
    RaceKind,
    WarpAccess,
)
from repro.core.granularity import GranularityMap
from repro.core.races import RaceLog


def _overlapping_write(seen: dict, entry: int,
                       la: Any) -> Optional[object]:
    """Register write lane ``la`` under ``entry``; return a previously
    registered lane whose byte footprint overlaps it (None otherwise)."""
    lo, hi = la.footprint()
    bucket = seen.setdefault(entry, [])
    for prev in bucket:
        p_lo, p_hi = prev.footprint()
        if lo < p_hi and p_lo < hi:
            return prev
    bucket.append(la)
    return None


class SharedShadowTable:
    """Shadow entries for one thread block's shared memory."""

    def __init__(self, region_bytes: int, granularity: int,
                 log: RaceLog, regroup: bool = False) -> None:
        self.gmap = GranularityMap(granularity)
        self.n = self.gmap.num_entries(region_bytes)
        self.log = log
        # the batched kernel compares owners by warp id; under re-grouping
        # ownership is per-thread and every duplicate-entry access would
        # fall back anyway, so run the scalar state machine throughout
        self.regroup = regroup
        # entry fields; virgin encoded as M=1, S=1
        self.tid = np.full(self.n, -1, dtype=np.int64)
        self.wid = np.full(self.n, -1, dtype=np.int64)
        self.M = np.ones(self.n, dtype=bool)
        self.S = np.ones(self.n, dtype=bool)
        self.resets = 0

    # ------------------------------------------------------------------

    def barrier_reset(self) -> int:
        """Invalidate all entries at a barrier; returns entries reset."""
        self.M[:] = True
        self.S[:] = True
        self.tid[:] = -1
        self.wid[:] = -1
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

        Returns the number of distinct new races reported. The warp's
        lanes are classified in one vectorized pass and only
        race-candidate lanes run the scalar state machine; results are
        bit-identical to :meth:`_check_scalar` (see :meth:`_check_batch`).
        """
        if not self.regroup and access.lanes:
            fast = self._check_batch(access)
            if fast is not None:
                return fast
        return self._check_scalar(access)

    def _check_scalar(self, access: WarpAccess) -> int:
        """Reference per-(entry, lane) state machine walk."""
        new = self.intra_warp_waw(access)
        for entry, la in self.gmap.lanes_to_entries(access.lanes):
            tid = access.thread_id(la.lane)
            race = self._check_one(
                entry, tid, access.warp_id,
                is_write=la.kind != AccessKind.READ,
            )
            if race is not None:
                if self.log.trip(
                    RaceCategory.SHARED_BARRIER, race, MemSpace.SHARED,
                    entry, la.addr,
                    owner_tid=int(self.tid[entry]),
                    access_tid=tid,
                    owner_block=access.block_id,
                    access_block=access.block_id,
                    pc=access.pc,
                ):
                    new += 1
                # after reporting, a write takes ownership so later
                # conflicts are still observable
                if la.kind != AccessKind.READ:
                    self._take_ownership(entry, tid, access.warp_id, True)
        return new

    # ------------------------------------------------------------------
    # batched fast path

    def _lane_arrays(self, access: WarpAccess
                     ) -> Optional[Tuple["np.ndarray[Any, Any]",
                                         "np.ndarray[Any, Any]",
                                         "np.ndarray[Any, Any]"]]:
        """Columnize a warp access for the batched kernel.

        Returns ``(entries, tids, lanes_idx)`` or None when the access does
        not meet the fast-path preconditions: uniform lane kind matching
        the warp kind, and every lane covered by exactly one shadow entry.
        """
        lanes = access.lanes
        cols: List[Tuple[Any, ...]] = list(zip(*lanes))
        lane_col, addr_col, size_col, kind_col = cols[0], cols[1], cols[2], cols[3]
        if any(k != access.kind for k in kind_col):
            return None
        addrs = np.array(addr_col, dtype=np.int64)
        shift = self.gmap._shift
        entries = addrs >> shift
        if len(set(size_col)) == 1:
            last = (addrs + (size_col[0] - 1)) >> shift
        else:
            last = (addrs + (np.array(size_col, dtype=np.int64) - 1)) >> shift
        if bool(np.any(entries != last)):
            return None
        tids = np.array(lane_col, dtype=np.int64) + access.base_tid
        return entries, tids, addrs

    def _check_batch(self, access: WarpAccess) -> Optional[int]:
        """Vectorized warp check; None when preconditions are unmet.

        Classification is by *pre-access* entry state, which is sound
        because the only transitions a warp's own lanes can chain through
        an entry stay inside the warp's ownership (same ``wid``): once the
        first lane of this warp owns an entry, later lanes of the same
        access are same-owner updates. Conflicting lanes (entry owned by a
        different warp) are handled by :meth:`_trip_conflicts`, which
        reproduces the scalar walk's reports, trip counts and ownership
        hand-offs exactly from the pre-state masks.
        """
        arrays = self._lane_arrays(access)
        if arrays is None:
            return None
        entries, tids, addrs = arrays
        is_write = access.kind != AccessKind.READ
        wid = access.warp_id

        has_dup = len(np.unique(entries)) != len(entries)
        new = 0
        if is_write and has_dup:
            # overlap detection needs same-entry lane pairs; with unique
            # entries the associative check can never fire
            new += self.intra_warp_waw(access)

        m = self.M[entries]
        s = self.S[entries]
        wid_eq = self.wid[entries] == wid

        # lanes whose scalar transition would report: entry owned by a
        # different warp and conflicting with this access kind
        if is_write:
            good = (m & s) | (~s & wid_eq)
        else:
            good = ~(m & ~s & ~wid_eq)
        bad = ~good

        if bool(bad.any()):
            new += self._trip_conflicts(access, entries[bad], tids[bad],
                                        addrs[bad], m[bad], is_write, wid,
                                        has_dup)

        if is_write:
            # virgin + same-warp state 2/3 all end written-by-this-warp
            # with the *last* writing lane as owner thread
            if bool(good.any()):
                sub_e = entries[good]
                sub_t = tids[good]
                if has_dup:
                    rev = sub_e[::-1]
                    uniq, ridx = np.unique(rev, return_index=True)
                    sel = sub_t[::-1][ridx]
                    sub_e, sub_t = uniq, sel
                self.tid[sub_e] = sub_t
                self.wid[sub_e] = wid
                self.M[sub_e] = True
                self.S[sub_e] = False
        else:
            virgin = m & s
            if bool(virgin.any()):
                # first reading lane becomes the recorded reader
                sub_e = entries[virgin]
                sub_t = tids[virgin]
                if has_dup:
                    uniq, fidx = np.unique(sub_e, return_index=True)
                    sub_e, sub_t = uniq, sub_t[fidx]
                self.tid[sub_e] = sub_t
                self.wid[sub_e] = wid
                self.M[sub_e] = False
                self.S[sub_e] = False
            other_reader = ~m & ~s & ~wid_eq
            if bool(other_reader.any()):
                self.S[entries[other_reader]] = True
        return new

    def _trip_conflicts(self, access: WarpAccess,
                        sub_e: "np.ndarray[Any, Any]",
                        sub_t: "np.ndarray[Any, Any]",
                        sub_a: "np.ndarray[Any, Any]",
                        sub_m: "np.ndarray[Any, Any]",
                        is_write: bool, wid: int, has_dup: bool) -> int:
        """Report the conflicting lanes of a batched check; returns new races.

        Reproduces the scalar walk exactly. For a *write*, only the first
        lane per entry trips (state 2/3 owned elsewhere -> WAR/WAW, state 4
        -> WAR) and then takes ownership, turning later same-entry lanes
        into silent latest-writer updates; the recorded owner thread ends
        as the last lane. For a *read*, every conflicting lane is a RAW
        trip against an unchanged state-3 entry, so the trip count is the
        lane multiplicity and each lane contributes a thread-pair key.
        """
        log = self.log
        e_list = sub_e.tolist()
        t_list = sub_t.tolist()
        owners = self.tid[sub_e].tolist()

        if not has_dup:
            # one trip per lane, each lane its own entry, report in lane
            # order — the common fully-diverged warp
            a_list = sub_a.tolist()
            if is_write:
                rows = [(e, RaceKind.WAW if mm else RaceKind.WAR, a, o, t, 1)
                        for e, mm, a, o, t in zip(e_list, sub_m.tolist(),
                                                  a_list, owners, t_list)]
            else:
                rows = [(e, RaceKind.RAW, a, o, t, 1)
                        for e, a, o, t in zip(e_list, a_list, owners, t_list)]
            new = log.trip_batch(
                RaceCategory.SHARED_BARRIER, MemSpace.SHARED, rows,
                owner_block=access.block_id, access_block=access.block_id,
                pc=access.pc)
            if is_write:
                self.tid[sub_e] = sub_t
                self.wid[sub_e] = wid
                self.M[sub_e] = True
                self.S[sub_e] = False
            return new

        uniq, first, dup_counts = np.unique(sub_e, return_index=True,
                                            return_counts=True)
        order = np.argsort(first, kind="stable")
        rows = []
        for k in order.tolist():
            i = int(first[k])
            entry = int(uniq[k])
            if is_write:
                kind = RaceKind.WAW if bool(sub_m[i]) else RaceKind.WAR
                trips = 1
            else:
                kind = RaceKind.RAW
                trips = int(dup_counts[k])
            rows.append((entry, kind, int(sub_a[i]), owners[i],
                         t_list[i], trips))
        new = log.trip_batch(
            RaceCategory.SHARED_BARRIER, MemSpace.SHARED, rows,
            owner_block=access.block_id, access_block=access.block_id,
            pc=access.pc)
        if is_write:
            # after reporting, the warp owns the entry; the last writing
            # lane per entry is the recorded thread (latest-writer rule)
            rev_e = sub_e[::-1]
            u2, ridx = np.unique(rev_e, return_index=True)
            self.tid[u2] = sub_t[::-1][ridx]
            self.wid[u2] = wid
            self.M[u2] = True
            self.S[u2] = False
        else:
            # reads leave the entry untouched but every lane's thread pair
            # is a distinct observable conflict
            log.note_pairs(
                RaceCategory.SHARED_BARRIER, RaceKind.RAW, MemSpace.SHARED,
                zip(e_list, owners, t_list))
        return new

    # ------------------------------------------------------------------

    def _same_owner(self, entry: int, tid: int, wid: int) -> bool:
        """Owner comparison: by warp normally, by thread under re-grouping."""
        if self.regroup:
            return self.tid[entry] == tid
        return self.wid[entry] == wid

    def _take_ownership(self, entry: int, tid: int, wid: int,
                        is_write: bool) -> None:
        self.tid[entry] = tid
        self.wid[entry] = wid
        self.M[entry] = is_write
        self.S[entry] = False

    def _check_one(self, entry: int, tid: int, wid: int,
                   is_write: bool) -> Optional[RaceKind]:
        m = self.M[entry]
        s = self.S[entry]

        if m and s:  # State 1: virgin
            self._take_ownership(entry, tid, wid, is_write)
            return None

        if not m and not s:  # State 2: single reader
            if not is_write:
                if not self._same_owner(entry, tid, wid):
                    self.S[entry] = True
                return None
            if self._same_owner(entry, tid, wid):
                # same warp's ordered write upgrades the entry
                self._take_ownership(entry, tid, wid, True)
                return None
            return RaceKind.WAR

        if m and not s:  # State 3: written by owner
            if self._same_owner(entry, tid, wid):
                if is_write:
                    self.tid[entry] = tid  # latest writer
                return None
            return RaceKind.RAW if not is_write else RaceKind.WAW

        # State 4: read by multiple warps
        if not is_write:
            return None
        return RaceKind.WAR
