"""Global shadow memory: extended shadow entries for device memory (§IV-B).

Global shadow entries extend the shared-memory triple ``(tid, M, S)`` with:

- ``bid`` / ``sid`` — the owner's thread-block and SM, because global memory
  is visible to all blocks across all SMs;
- ``sync_id`` — the owner block's barrier epoch at access time: matching
  IDs from the *same* block mean the accesses share an epoch and must be
  race-checked, different IDs mean a barrier ordered them and the entry is
  refreshed with the new access;
- ``fence_id`` — the owner warp's fence epoch at write time, compared on a
  cross-warp read against the owner warp's *current* epoch in the race
  register file: a match means the producer never fenced, i.e. the consumer
  may see a stale value (§III-C);
- ``sig`` — the atomic-ID lockset protecting the location so far (bitwise
  intersection over protected accesses, §III-B);
- ``atomic`` — whether every access so far was a hardware atomic (atomics
  serialize in the memory partition and do not race with each other).

Race dispatch order (documented here because the paper distributes it over
three sections): same-block sync refresh -> lockset (which "has priority
over barrier synchronizations" in critical sections) -> atomic-atomic
exemption -> happens-before state machine with fence suppression and the
L1-hit stale-read check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from repro.common.bitops import ceil_div
from repro.common.config import HAccRGConfig
from repro.common.types import (
    AccessKind,
    MemSpace,
    RaceCategory,
    RaceKind,
    WarpAccess,
)
from repro.core.clocks import RaceRegisterFile
from repro.core.granularity import GranularityMap
from repro.core.races import RaceLog
from repro.core.shadow import _overlapping_write

#: field positions in a stored entry record
TID, WID, BID, SID, M, S, SYNC, FENCE, SIG, ATOMIC = range(10)


class GlobalEntry(NamedTuple):
    """Read-only view of one global shadow entry."""

    tid: int
    wid: int
    bid: int
    sid: int
    M: bool
    S: bool
    sync: int
    fence: int
    sig: int
    atomic: bool


#: what a missing key in the store means: virgin, no owner, no lockset
VIRGIN = GlobalEntry(-1, -1, -1, -1, True, True, 0, 0, 0, False)


def global_shadow_footprint(data_bytes: int, granularity: int = 4,
                            entry_bits: int = 36) -> int:
    """Shadow storage (bytes) for ``data_bytes`` of kernel data (Table IV).

    The paper's Table IV reports the fixed global-memory overhead at 4-byte
    granularity; 36-bit entries (basic 28 bits + 8-bit fence ID, §VI-C2)
    reproduce its footprints.
    """
    entries = ceil_div(data_bytes, granularity)
    return ceil_div(entries * entry_bits, 8)


@dataclass
class GlobalShadowStats:
    """Detection-side counters (shadow checks, refreshes, suppressions)."""

    checks: int = 0
    sync_refreshes: int = 0
    fence_suppressed: int = 0
    lockset_checks: int = 0
    atomic_exemptions: int = 0
    stale_l1_reports: int = 0


class GlobalShadowMemory:
    """Shadow entries covering the kernel's global-memory allocations.

    Entries live in a sparse store: ``store`` maps an entry index to its
    record (the :class:`GlobalEntry` fields, in order, as a list), and a
    missing key is a virgin entry. Construction and the kernel-end
    ``cudaMemset`` cost nothing per entry, and memory follows the entries
    a kernel touches, not the size of its allocations.
    """

    def __init__(self, region_bytes: int, config: HAccRGConfig,
                 log: RaceLog, rrf: RaceRegisterFile,
                 shadow_base: int = 0) -> None:
        self.config = config
        self.gmap = GranularityMap(config.global_granularity)
        self.n = self.gmap.num_entries(max(1, region_bytes))
        self.log = log
        self.rrf = rrf
        # under re-grouping ownership is per-thread and the warp-level
        # precondition of check() does not apply: run the scalar walk
        self.regroup = config.warp_regrouping
        self.shadow_base = shadow_base  # device address of the shadow region
        self._entry_bits = self.entry_bits(config)
        self._sync_mask = config.sync_id_mask
        self._fence_mask = config.fence_id_mask
        self.stats = GlobalShadowStats()
        self.store: Dict[int, List[Any]] = {}
        #: set by mutators during one _check_one; drives write-back traffic
        self._dirtied = False

    def entry(self, index: int) -> GlobalEntry:
        """State of entry ``index``; reading a virgin entry stores nothing."""
        rec = self.store.get(index)
        return VIRGIN if rec is None else GlobalEntry(*rec)

    # ------------------------------------------------------------------
    # shadow-address arithmetic (drives the RDU's shadow traffic)

    @staticmethod
    def entry_bits(config: HAccRGConfig) -> int:
        """Bits stored per shadow entry in device memory.

        The in-memory entry is the 28-bit basic record plus the 8-bit
        fence ID (36 bits, the paper's Table IV configuration); atomic-ID
        signatures are kept in the RDU-side structures for the small set
        of critical-section lines, not in every entry.
        """
        return config.global_entry_bits(with_fence=True, with_atomic=False)

    @staticmethod
    def region_footprint(region_bytes: int, config: HAccRGConfig) -> int:
        """:meth:`footprint_bytes` of a shadow over ``region_bytes``,
        without building one."""
        return global_shadow_footprint(
            max(1, region_bytes), config.global_granularity,
            GlobalShadowMemory.entry_bits(config))

    def shadow_addr_of_entry(self, entry: int) -> int:
        """Device byte address where ``entry`` is stored (packed layout)."""
        return self.shadow_base + (entry * self._entry_bits) // 8

    def footprint_bytes(self) -> int:
        return ceil_div(self.n * self._entry_bits, 8)

    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """``cudaMemset`` of the shadow region at kernel end (§IV-B)."""
        self.store.clear()

    # ------------------------------------------------------------------

    def intra_warp_waw(self, access: WarpAccess) -> int:
        """Same-instruction WAW between lanes (associative request check)."""
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
            # concurrent atomics to one location serialize; not a race
            if la.kind == AccessKind.ATOMIC and prev.kind == AccessKind.ATOMIC:
                continue
            if self.log.trip(
                RaceCategory.GLOBAL_BARRIER, RaceKind.WAW, MemSpace.GLOBAL,
                entry, la.addr,
                owner_tid=access.thread_id(prev.lane),
                access_tid=access.thread_id(la.lane),
                owner_block=access.block_id,
                access_block=access.block_id,
                pc=access.pc,
            ):
                new += 1
        return new

    def check(self, access: WarpAccess,
              lane_l1_hit: Optional[Sequence[bool]] = None) -> List[int]:
        """Process one warp access; returns the distinct entries touched.

        The entry list is what the RDU turns into shadow-memory traffic
        (one read-modify-write of each entry's shadow word). When the
        access's lanes share its kind and map to distinct single entries,
        no two lanes can overlap, so the same-instruction WAW check is
        skipped and each lane runs :meth:`_check_one` once, in lane
        order; races, stats and dirtied-entry lists are identical to
        :meth:`_check_scalar`.
        """
        if not self.regroup:
            entries = self.gmap.distinct_entries(access.lanes, access.kind)
            if entries is not None:
                dirty_only = self.config.shadow_writeback_dirty_only
                check_one = self._check_one
                dirtied: List[int] = []
                for i, (entry, la) in enumerate(zip(entries, access.lanes)):
                    self._dirtied = False
                    check_one(entry, la, access,
                              bool(lane_l1_hit[i]) if lane_l1_hit is not None
                              else False)
                    if self._dirtied or not dirty_only:
                        dirtied.append(entry)
                return dirtied
        return self._check_scalar(access, lane_l1_hit)

    def _check_scalar(self, access: WarpAccess,
                      lane_l1_hit: Optional[Sequence[bool]] = None) -> List[int]:
        """Reference per-(entry, lane) dispatch walk."""
        self.intra_warp_waw(access)
        dirty_only = self.config.shadow_writeback_dirty_only
        dirtied: List[int] = []
        seen = set()
        for i, la in enumerate(access.lanes):
            l1_hit = bool(lane_l1_hit[i]) if lane_l1_hit is not None else False
            for entry in self.gmap.entries_of_range(la.addr, la.size):
                self._dirtied = False
                self._check_one(entry, la, access, l1_hit)
                if (self._dirtied or not dirty_only) and entry not in seen:
                    seen.add(entry)
                    dirtied.append(entry)
        # only *modified* entries need a shadow write-back; re-checks that
        # leave the entry unchanged are satisfied from the RDU's copy
        # (unless the dirty-only optimization is ablated away)
        return dirtied

    # ------------------------------------------------------------------

    def _init_entry(self, entry: int, la: Any, access: WarpAccess,
                    is_write: bool) -> None:
        """Set an entry from a first (or epoch-refreshing) access."""
        self._dirtied = True
        self.store[entry] = [
            access.base_tid + la.lane, access.warp_id, access.block_id,
            access.sm_id, is_write, False,
            access.sync_id & self._sync_mask,
            access.fence_id & self._fence_mask,
            la.sig if la.critical else 0,
            la.kind == AccessKind.ATOMIC,
        ]

    def _report(self, rec: List[Any], entry: int, la: Any,
                access: WarpAccess, kind: RaceKind,
                category: RaceCategory, stale_l1: bool = False) -> None:
        self.log.trip(
            category, kind, MemSpace.GLOBAL, entry, la.addr,
            owner_tid=rec[TID],
            access_tid=access.thread_id(la.lane),
            owner_block=rec[BID],
            access_block=access.block_id,
            pc=access.pc,
            stale_l1=stale_l1,
        )
        if stale_l1:
            self.stats.stale_l1_reports += 1

    def _check_one(self, entry: int, la: Any, access: WarpAccess,
                   l1_hit: bool) -> None:
        self.stats.checks += 1
        cfg = self.config
        is_write = la.kind != AccessKind.READ
        is_atomic = la.kind == AccessKind.ATOMIC

        # -- virgin entry (missing, or M=S=1 left by the lockset path) ------
        rec = self.store.get(entry)
        if rec is None or (rec[M] and rec[S]):
            self._init_entry(entry, la, access, is_write)
            return

        # -- same-block sync-ID refresh (§IV-B) -----------------------------
        same_block = rec[BID] == access.block_id
        if same_block and rec[SYNC] != access.sync_id & self._sync_mask:
            # a barrier separates the stored and current accesses
            self.stats.sync_refreshes += 1
            self._init_entry(entry, la, access, is_write)
            return

        tid = access.base_tid + la.lane
        wid = access.warp_id
        # owner comparison: by warp normally, by thread under re-grouping
        same_owner = rec[TID] == tid if self.regroup else rec[WID] == wid

        # -- lockset path (priority inside critical sections, §III-B) -------
        if la.critical or rec[SIG] != 0:
            self.stats.lockset_checks += 1
            self._lockset_check(rec, entry, la, access, tid, wid,
                                is_write, same_owner)
            return

        # -- atomic-atomic exemption ----------------------------------------
        if is_atomic and rec[ATOMIC]:
            self.stats.atomic_exemptions += 1
            # serialized RMW chain: latest atomic becomes the owner
            self._init_entry(entry, la, access, True)
            return

        # -- happens-before state machine ------------------------------------
        if rec[M]:  # owner has written (state 3, since S=0 with M=1)
            if same_owner:
                if is_write:
                    self._dirtied = True
                    rec[TID] = tid
                    rec[FENCE] = access.fence_id & self._fence_mask
                    rec[ATOMIC] = is_atomic
                return
            if not is_write:
                # RAW candidate: stale-L1 coherence check first (§IV-B)
                if (cfg.stale_l1_check_enabled and l1_hit
                        and rec[SID] != access.sm_id):
                    self._report(rec, entry, la, access, RaceKind.RAW,
                                 RaceCategory.GLOBAL_FENCE, stale_l1=True)
                    return
                # fence suppression: owner fenced since its write => safe
                if cfg.fence_check_enabled:
                    if self.rrf.current_fence(rec[WID]) != rec[FENCE]:
                        self.stats.fence_suppressed += 1
                        return
                self._report(rec, entry, la, access, RaceKind.RAW,
                             RaceCategory.GLOBAL_BARRIER if same_block
                             else RaceCategory.GLOBAL_FENCE)
                return
            # cross-warp write over a write
            self._report(rec, entry, la, access, RaceKind.WAW,
                         RaceCategory.GLOBAL_BARRIER)
            self._init_entry(entry, la, access, True)
            return

        if not rec[S]:  # state 2: single reader
            if not is_write:
                if not same_owner or not same_block:
                    self._dirtied = True
                    rec[S] = True
                return
            if same_owner:
                self._init_entry(entry, la, access, True)
                return
            self._report(rec, entry, la, access, RaceKind.WAR,
                         RaceCategory.GLOBAL_BARRIER)
            self._init_entry(entry, la, access, True)
            return

        # state 4: read by multiple warps/blocks
        if not is_write:
            return
        self._report(rec, entry, la, access, RaceKind.WAR,
                     RaceCategory.GLOBAL_BARRIER)
        self._init_entry(entry, la, access, True)

    # ------------------------------------------------------------------

    def _lockset_check(self, rec: List[Any], entry: int, la: Any,
                       access: WarpAccess, tid: int, wid: int,
                       is_write: bool, same_owner: bool) -> None:
        """§III-B: different-lock and protected/unprotected mixing rules."""
        entry_sig = rec[SIG]
        cur_sig = la.sig if la.critical else 0
        written = rec[M]
        conflict = written or is_write

        if same_owner:
            # a thread (warp) cannot race with itself; fold in its lockset
            new_sig = entry_sig & cur_sig if entry_sig else cur_sig
            if new_sig != entry_sig:
                self._dirtied = True
            rec[SIG] = new_sig
            if is_write:
                self._dirtied = True
                rec[M] = True
                rec[TID] = tid
                rec[ATOMIC] = la.kind == AccessKind.ATOMIC
            return

        if entry_sig != 0 and cur_sig != 0:
            inter = entry_sig & cur_sig
            if inter == 0 and conflict:
                self._report(rec, entry, la, access,
                             RaceKind.WAW if (written and is_write)
                             else (RaceKind.RAW if written
                                   else RaceKind.WAR),
                             RaceCategory.GLOBAL_LOCKSET)
                self._init_entry(entry, la, access, conflict)
                return
            # common lock held — but a critical-section read of another
            # warp's write still needs the producer to have fenced before
            # releasing the lock (Fig. 2(b)): the lock hand-off does not
            # order the data write on a non-coherent memory system
            if (self.config.fence_check_enabled
                    and not is_write and written
                    and self.rrf.current_fence(rec[WID]) == rec[FENCE]):
                self._report(rec, entry, la, access, RaceKind.RAW,
                             RaceCategory.GLOBAL_FENCE)
                return
            # store the lockset intersection
            if inter != entry_sig:
                self._dirtied = True
            rec[SIG] = inter
            if is_write:
                self._dirtied = True
                rec[M] = True
                rec[TID] = tid
                rec[WID] = wid
                rec[FENCE] = access.fence_id & self._fence_mask
            else:
                # not the owner (checked above): a read of an unwritten
                # entry keeps S, a read of a written one clears it
                rec[S] = rec[S] and not written
            return

        # protected/unprotected mixing
        if conflict:
            self._report(rec, entry, la, access,
                         RaceKind.WAW if (written and is_write)
                         else (RaceKind.RAW if written
                               else RaceKind.WAR),
                         RaceCategory.GLOBAL_LOCKSET)
            self._init_entry(entry, la, access, conflict)
            return
        # read-read across protection domains: drop to unprotected
        if entry_sig != 0 or not rec[S]:
            self._dirtied = True
        rec[SIG] = 0
        rec[S] = True
