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
from typing import Any, List, Optional, Sequence

import numpy as np

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
    """Shadow entries covering the kernel's global-memory allocations."""

    def __init__(self, region_bytes: int, config: HAccRGConfig,
                 log: RaceLog, rrf: RaceRegisterFile,
                 shadow_base: int = 0) -> None:
        self.config = config
        self.gmap = GranularityMap(config.global_granularity)
        self.n = self.gmap.num_entries(max(1, region_bytes))
        self.log = log
        self.rrf = rrf
        # batched kernel compares owners by warp id; per-thread ownership
        # under re-grouping keeps the scalar walk (see _check_batch)
        self.regroup = config.warp_regrouping
        self.shadow_base = shadow_base  # device address of the shadow region
        self.stats = GlobalShadowStats()

        n = self.n
        self.tid = np.full(n, -1, dtype=np.int64)
        self.wid = np.full(n, -1, dtype=np.int64)
        self.bid = np.full(n, -1, dtype=np.int32)
        self.sid = np.full(n, -1, dtype=np.int32)
        self.M = np.ones(n, dtype=bool)
        self.S = np.ones(n, dtype=bool)
        self.sync = np.zeros(n, dtype=np.int32)
        self.fence = np.zeros(n, dtype=np.int32)
        self.sig = np.zeros(n, dtype=np.int64)
        self.atomic = np.zeros(n, dtype=bool)
        #: set by mutators during one _check_one; drives write-back traffic
        self._dirtied = False

    # ------------------------------------------------------------------
    # shadow-address arithmetic (drives the RDU's shadow traffic)

    def entry_bits(self) -> int:
        """Bits stored per shadow entry in device memory.

        The in-memory entry is the 28-bit basic record plus the 8-bit
        fence ID (36 bits, the paper's Table IV configuration); atomic-ID
        signatures are kept in the RDU-side structures for the small set
        of critical-section lines, not in every entry.
        """
        return self.config.global_entry_bits(with_fence=True,
                                             with_atomic=False)

    def shadow_addr_of_entry(self, entry: int) -> int:
        """Device byte address where ``entry`` is stored (packed layout)."""
        return self.shadow_base + (entry * self.entry_bits()) // 8

    def footprint_bytes(self) -> int:
        return ceil_div(self.n * self.entry_bits(), 8)

    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """``cudaMemset`` of the shadow region at kernel end (§IV-B)."""
        self.tid[:] = -1
        self.wid[:] = -1
        self.bid[:] = -1
        self.sid[:] = -1
        self.M[:] = True
        self.S[:] = True
        self.sync[:] = 0
        self.fence[:] = 0
        self.sig[:] = 0
        self.atomic[:] = False

    # ------------------------------------------------------------------

    def intra_warp_waw(self, access: WarpAccess) -> int:
        """Same-instruction WAW between lanes (associative request check)."""
        if access.kind == AccessKind.READ:
            return 0
        from repro.core.shadow import _overlapping_write
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
        (one read-modify-write of each entry's shadow word). Accesses
        whose lanes map to distinct single entries are classified in one
        vectorized pass (see :meth:`_check_batch`); results — races,
        stats, dirtied-entry lists — are bit-identical to
        :meth:`_check_scalar`.
        """
        if not self.regroup and access.lanes:
            fast = self._check_batch(access, lane_l1_hit)
            if fast is not None:
                return fast
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
    # batched fast path

    def _check_batch(self, access: WarpAccess,
                     lane_l1_hit: Optional[Sequence[bool]]
                     ) -> Optional[List[int]]:
        """Vectorized warp check; None when preconditions are unmet.

        Preconditions: uniform lane kind matching the warp kind, every
        lane covered by exactly one shadow entry, and all entries distinct
        within the access. Distinct entries make every (entry, lane) check
        independent — the scalar walk's sequential entry mutations cannot
        interact — so lanes are classified by pre-access entry state in
        one pass. The dispatch classes that can report a race or consult
        the race register file (lockset path, cross-warp HB conflicts)
        fall back to the scalar :meth:`_check_one` in lane order,
        preserving report order, trip counts and stats exactly.
        """
        lanes = access.lanes
        cols = list(zip(*lanes))
        lane_col, addr_col, size_col, kind_col, sig_col, crit_col = cols
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
        if len(np.unique(entries)) != len(entries):
            return None
        # distinct entries: the associative same-instruction WAW check can
        # never pair two lanes, so intra_warp_waw is a provable no-op

        cfg = self.config
        n_lanes = len(lanes)
        is_write = access.kind != AccessKind.READ
        is_atomic = access.kind == AccessKind.ATOMIC
        wid = access.warp_id
        cur_sync = access.sync_id & cfg.sync_id_mask
        cur_fence = access.fence_id & cfg.fence_id_mask
        tids = np.array(lane_col, dtype=np.int64) + access.base_tid
        crit = np.array(crit_col, dtype=bool)

        m = self.M[entries]
        s = self.S[entries]
        bid_eq = self.bid[entries] == access.block_id
        wid_eq = self.wid[entries] == wid
        sig_nz = self.sig[entries] != 0
        atomic_e = self.atomic[entries]

        # dispatch cascade on pre-access state (mirrors _check_one)
        virgin = m & s
        rem = ~virgin
        refresh = rem & bid_eq & (self.sync[entries] != cur_sync)
        rem &= ~refresh
        lockset = rem & (crit | sig_nz)
        rem &= ~lockset
        if is_atomic:
            atomic_ex = rem & atomic_e
            rem &= ~atomic_ex
        else:
            atomic_ex = np.zeros(n_lanes, dtype=bool)
        state3 = rem & m
        s3_same = state3 & wid_eq
        s3_diff = state3 & ~wid_eq
        state2 = rem & ~m & ~s
        state4 = rem & ~m & s

        if is_write:
            fallback = lockset | s3_diff | (state2 & ~wid_eq) | state4
        else:
            fallback = lockset | s3_diff

        dirty = np.zeros(n_lanes, dtype=bool)

        # -- vectorized transitions ------------------------------------
        init_mask = virgin | refresh | atomic_ex
        if is_write:
            init_mask |= state2 & wid_eq
        if bool(init_mask.any()):
            e = entries[init_mask]
            self.tid[e] = tids[init_mask]
            self.wid[e] = wid
            self.bid[e] = access.block_id
            self.sid[e] = access.sm_id
            self.M[e] = is_write
            self.S[e] = False
            self.sync[e] = cur_sync
            self.fence[e] = cur_fence
            self.sig[e] = np.where(crit[init_mask],
                                   np.array(sig_col, dtype=np.int64)[init_mask],
                                   0)
            self.atomic[e] = is_atomic
            dirty |= init_mask
        if is_write and bool(s3_same.any()):
            # same-owner over-write: latest writer, refreshed fence epoch
            e = entries[s3_same]
            self.tid[e] = tids[s3_same]
            self.fence[e] = cur_fence
            self.atomic[e] = is_atomic
            dirty |= s3_same
        if not is_write:
            other_reader = state2 & (~wid_eq | ~bid_eq)
            if bool(other_reader.any()):
                self.S[entries[other_reader]] = True
                dirty |= other_reader
        # s3_same reads, same-warp state-2 reads and state-4 reads are
        # no-ops in the scalar walk: nothing to do, nothing dirtied

        # -- stats (fallback lanes count inside _check_one) -------------
        n_fallback = int(fallback.sum())
        self.stats.checks += n_lanes - n_fallback
        self.stats.sync_refreshes += int(refresh.sum())
        if is_atomic:
            self.stats.atomic_exemptions += int(atomic_ex.sum())

        # -- scalar fallback in lane order ------------------------------
        if n_fallback:
            for i in np.nonzero(fallback)[0].tolist():
                la = lanes[i]
                l1_hit = bool(lane_l1_hit[i]) if lane_l1_hit is not None else False
                self._dirtied = False
                self._check_one(int(entries[i]), la, access, l1_hit)
                if self._dirtied:
                    dirty[i] = True

        dirty_only = self.config.shadow_writeback_dirty_only
        entry_list = entries.tolist()
        if not dirty_only:
            return entry_list
        flags = dirty.tolist()
        return [e for e, d in zip(entry_list, flags) if d]

    # ------------------------------------------------------------------

    def _same_owner(self, entry: int, tid: int, wid: int) -> bool:
        if self.regroup:
            return self.tid[entry] == tid
        return self.wid[entry] == wid

    def _init_entry(self, entry: int, la: Any, access: WarpAccess,
                    is_write: bool) -> None:
        """Set an entry from a first (or epoch-refreshing) access."""
        self._dirtied = True
        self.tid[entry] = access.thread_id(la.lane)
        self.wid[entry] = access.warp_id
        self.bid[entry] = access.block_id
        self.sid[entry] = access.sm_id
        self.M[entry] = is_write
        self.S[entry] = False
        self.sync[entry] = access.sync_id & self.config.sync_id_mask
        self.fence[entry] = access.fence_id & self.config.fence_id_mask
        self.sig[entry] = la.sig if la.critical else 0
        self.atomic[entry] = la.kind == AccessKind.ATOMIC

    def _report(self, entry: int, la: Any, access: WarpAccess,
                kind: RaceKind,
                category: RaceCategory, stale_l1: bool = False) -> None:
        self.log.trip(
            category, kind, MemSpace.GLOBAL, entry, la.addr,
            owner_tid=int(self.tid[entry]),
            access_tid=access.thread_id(la.lane),
            owner_block=int(self.bid[entry]),
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
        tid = access.thread_id(la.lane)
        wid = access.warp_id

        # -- virgin entry --------------------------------------------------
        if self.M[entry] and self.S[entry]:
            self._init_entry(entry, la, access, is_write)
            return

        # -- same-block sync-ID refresh (§IV-B) -----------------------------
        cur_sync = access.sync_id & cfg.sync_id_mask
        if (self.bid[entry] == access.block_id
                and self.sync[entry] != cur_sync):
            # a barrier separates the stored and current accesses
            self.stats.sync_refreshes += 1
            self._init_entry(entry, la, access, is_write)
            return

        # -- lockset path (priority inside critical sections, §III-B) -------
        entry_sig = int(self.sig[entry])
        if la.critical or entry_sig != 0:
            self.stats.lockset_checks += 1
            self._lockset_check(entry, la, access, tid, wid,
                                is_write, entry_sig)
            return

        # -- atomic-atomic exemption ----------------------------------------
        if is_atomic and self.atomic[entry]:
            self.stats.atomic_exemptions += 1
            # serialized RMW chain: latest atomic becomes the owner
            self._init_entry(entry, la, access, True)
            return

        # -- happens-before state machine ------------------------------------
        same_block = self.bid[entry] == access.block_id
        category = (RaceCategory.GLOBAL_BARRIER if same_block
                    else RaceCategory.GLOBAL_FENCE)

        if self.M[entry]:  # owner has written (state 3, since S=0 with M=1)
            if self._same_owner(entry, tid, wid):
                if is_write:
                    self._dirtied = True
                    self.tid[entry] = tid
                    self.fence[entry] = access.fence_id & cfg.fence_id_mask
                    self.atomic[entry] = is_atomic
                return
            if not is_write:
                # RAW candidate: stale-L1 coherence check first (§IV-B)
                if (self.config.stale_l1_check_enabled and l1_hit
                        and self.sid[entry] != access.sm_id):
                    self._report(entry, la, access, RaceKind.RAW,
                                 RaceCategory.GLOBAL_FENCE, stale_l1=True)
                    return
                # fence suppression: owner fenced since its write => safe
                if self.config.fence_check_enabled:
                    owner_now = self.rrf.current_fence(int(self.wid[entry]))
                    if owner_now != self.fence[entry]:
                        self.stats.fence_suppressed += 1
                        return
                self._report(entry, la, access, RaceKind.RAW, category)
                return
            # cross-warp write over a write
            self._report(entry, la, access, RaceKind.WAW,
                         RaceCategory.GLOBAL_BARRIER if same_block
                         else RaceCategory.GLOBAL_BARRIER)
            self._init_entry(entry, la, access, True)
            return

        if not self.S[entry]:  # state 2: single reader
            if not is_write:
                if not self._same_owner(entry, tid, wid) \
                        or self.bid[entry] != access.block_id:
                    self._dirtied = True
                    self.S[entry] = True
                return
            if self._same_owner(entry, tid, wid):
                self._init_entry(entry, la, access, True)
                return
            self._report(entry, la, access, RaceKind.WAR,
                         RaceCategory.GLOBAL_BARRIER)
            self._init_entry(entry, la, access, True)
            return

        # state 4: read by multiple warps/blocks
        if not is_write:
            return
        self._report(entry, la, access, RaceKind.WAR,
                     RaceCategory.GLOBAL_BARRIER)
        self._init_entry(entry, la, access, True)

    # ------------------------------------------------------------------

    def _lockset_check(self, entry: int, la: Any, access: WarpAccess,
                       tid: int, wid: int, is_write: bool,
                       entry_sig: int) -> None:
        """§III-B: different-lock and protected/unprotected mixing rules."""
        cur_sig = la.sig if la.critical else 0
        conflict = bool(self.M[entry]) or is_write

        if self._same_owner(entry, tid, wid):
            # a thread (warp) cannot race with itself; fold in its lockset
            new_sig = entry_sig & cur_sig if entry_sig else cur_sig
            if new_sig != entry_sig:
                self._dirtied = True
            self.sig[entry] = new_sig
            if is_write:
                self._dirtied = True
                self.M[entry] = True
                self.tid[entry] = tid
                self.atomic[entry] = la.kind == AccessKind.ATOMIC
            return

        if entry_sig != 0 and cur_sig != 0:
            inter = entry_sig & cur_sig
            if inter == 0 and conflict:
                self._report(entry, la, access,
                             RaceKind.WAW if (self.M[entry] and is_write)
                             else (RaceKind.RAW if self.M[entry]
                                   else RaceKind.WAR),
                             RaceCategory.GLOBAL_LOCKSET)
                self._init_entry(entry, la, access, is_write or bool(self.M[entry]))
                return
            # common lock held — but a critical-section read of another
            # warp's write still needs the producer to have fenced before
            # releasing the lock (Fig. 2(b)): the lock hand-off does not
            # order the data write on a non-coherent memory system
            if (self.config.fence_check_enabled
                    and not is_write and self.M[entry]
                    and self.rrf.current_fence(int(self.wid[entry]))
                    == self.fence[entry]):
                self._report(entry, la, access, RaceKind.RAW,
                             RaceCategory.GLOBAL_FENCE)
                return
            # store the lockset intersection
            if inter != entry_sig:
                self._dirtied = True
            self.sig[entry] = inter
            if is_write:
                self._dirtied = True
                self.M[entry] = True
                self.tid[entry] = tid
                self.wid[entry] = access.warp_id
                self.fence[entry] = access.fence_id & self.config.fence_id_mask
            elif not self._same_owner(entry, tid, wid):
                self.S[entry] = bool(self.S[entry]) and not self.M[entry]
            return

        # protected/unprotected mixing
        if conflict:
            self._report(entry, la, access,
                         RaceKind.WAW if (self.M[entry] and is_write)
                         else (RaceKind.RAW if self.M[entry]
                               else RaceKind.WAR),
                         RaceCategory.GLOBAL_LOCKSET)
            self._init_entry(entry, la, access, is_write or bool(self.M[entry]))
            return
        # read-read across protection domains: drop to unprotected
        if self.sig[entry] != 0 or not self.S[entry]:
            self._dirtied = True
        self.sig[entry] = 0
        self.S[entry] = True
