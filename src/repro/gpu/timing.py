"""Timing layer: prices warp instructions, owns no architectural state.

This module is one half of the engine split described in ``docs/ENGINE.md``.
The :class:`TimingModel` computes *when* things complete — bank-conflict
replay passes, coalesced transactions, memory-system round trips, lock/
fence/barrier pipeline costs — while :mod:`repro.gpu.functional` computes
*what* happens to architectural state. ``StreamingMultiprocessor`` composes
the two through the event bus.

Every method here is pure with respect to the simulation's functional
state: given the same decoded access it returns the same cost. The
batched kernels take the warp address vector when decode produced one and
fall back to the scalar walk otherwise (non-uniform lane sizes, lanes
straddling a segment, bank geometry without shift/mask arithmetic); both
are bit-identical, which the property tests check.

Timing is computed even when the simulator's ``timing_enabled`` flag is
off: costs feed ``warp.ready_at`` and therefore the event *order*, which
detection results depend on.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Set

from repro.common.bitops import is_power_of_two, log2_exact
from repro.common.config import GPUConfig
from repro.common.types import LaneAccess, Transaction
from repro.gpu.coalescer import _shrink, coalesce
from repro.gpu.shared_memory import SharedMemoryModel

#: Cycles a warp waits before re-attempting a contended lock acquire.
LOCK_RETRY_INTERVAL = 40
#: Retry budget before the simulator declares a lock deadlock.
LOCK_RETRY_LIMIT = 1_000_000
#: Fixed barrier pipeline cost (arrival/scoreboard handshake).
BARRIER_BASE_COST = 4
#: Fence completion cost: drain outstanding stores to the L2 point of
#: coherence before the epoch advances.
FENCE_BASE_COST = 60

_SEGMENT = 128


def lane_hit_flags(lane_accesses: Sequence[LaneAccess],
                   txns: Sequence[Transaction],
                   txn_levels: Sequence[str]) -> List[bool]:
    """Map per-transaction hit levels back to per-lane L1-hit flags.

    Coalesced transactions are disjoint address intervals, so one sorted
    interval map built per warp access answers every lane with a binary
    search instead of rescanning the transaction list.
    """
    if not txns:
        return [False] * len(lane_accesses)
    intervals = sorted(
        (txn.addr, txn.addr + txn.size, level == "l1")
        for txn, level in zip(txns, txn_levels)
    )
    starts = [iv[0] for iv in intervals]
    flags: List[bool] = []
    for la in lane_accesses:
        i = bisect_right(starts, la.addr) - 1
        flags.append(i >= 0 and la.addr < intervals[i][1]
                     and intervals[i][2])
    return flags


def coalesce_fast(addrs: Sequence[int], size: int, is_write: bool,
                  lane_accesses: Sequence[LaneAccess]) -> List[Transaction]:
    """Warp-batch coalescer for the common uniform-size, non-straddling case.

    One dict-of-segments sweep over the (at most 32) lane addresses; falls
    back to the scalar :func:`repro.gpu.coalescer.coalesce` when any lane
    straddles a 128-byte segment boundary (the scalar replay-style handling
    is simpler than a batched split). Output is bit-identical: segments are
    emitted in ascending address order, same as the scalar path.
    """
    mask = ~(_SEGMENT - 1)
    segs: Dict[int, List[int]] = {}
    for a in addrs:
        b = a + size
        s = a & mask
        if b > s + _SEGMENT:
            return coalesce(lane_accesses, is_write)
        cur = segs.get(s)
        if cur is None:
            segs[s] = [a, b]
        else:
            if a < cur[0]:
                cur[0] = a
            if b > cur[1]:
                cur[1] = b
    out: List[Transaction] = []
    for s in sorted(segs):
        lo, hi = segs[s]
        out.extend(_shrink(s, lo, hi, is_write, False))
    return out


class TimingModel:
    """Per-SM timing: shared bank conflicts, global round trips, sync costs."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.shared_model = SharedMemoryModel(
            config.shared_mem_banks, config.shared_bank_width
        )
        # the batched bank-conflict kernel needs shift/mask arithmetic
        self._fast_banks = (
            is_power_of_two(config.shared_bank_width)
            and is_power_of_two(config.shared_mem_banks)
        )
        self._bank_shift = (log2_exact(config.shared_bank_width)
                            if is_power_of_two(config.shared_bank_width) else 0)
        self._bank_mask = config.shared_mem_banks - 1

    # -- shared memory -----------------------------------------------------

    def shared_cost(self, lane_accesses: Sequence[LaneAccess],
                    addrs: Optional[Sequence[int]],
                    issue: int) -> int:
        """Cost of one shared-memory warp access (latency + replay passes)."""
        if self._fast_banks and addrs is not None:
            passes = self._conflict_passes_fast(addrs)
        else:
            passes = self.shared_model.conflict_passes(lane_accesses)
        return self.config.shared_latency + passes * issue

    def _conflict_passes_fast(self, addrs: Sequence[int]) -> int:
        """Batched bank-conflict passes: distinct words per bank, max.

        A warp is at most 32 lanes, so a set/dict sweep beats array
        set-ops on the tiny operand; the shift/mask arithmetic still
        comes from the power-of-two geometry checked at construction.
        """
        shift = self._bank_shift
        mask = self._bank_mask
        seen: Set[int] = set()
        add = seen.add
        counts: Dict[int, int] = {}
        get = counts.get
        best = 0
        for a in addrs:
            w = a >> shift
            if w in seen:
                continue
            add(w)
            b = w & mask
            c = get(b, 0) + 1
            counts[b] = c
            if c > best:
                best = c
        return best

    # -- global memory -----------------------------------------------------

    def global_transactions(self, lane_accesses: Sequence[LaneAccess],
                            addrs: Optional[Sequence[int]],
                            size: int, is_write: bool) -> List[Transaction]:
        """Coalesce one global warp access into memory transactions."""
        if addrs is not None and size > 0:
            return coalesce_fast(addrs, size, is_write, lane_accesses)
        return coalesce(lane_accesses, is_write)

    def atomic_serialization(self, lane_accesses: Sequence[LaneAccess],
                             addrs: Optional[Sequence[int]],
                             issue: int) -> int:
        """Extra cycles for same-address atomics (serialize in lane order)."""
        if addrs is not None:
            if not addrs:
                return 0
            per: Dict[int, int] = {}
            best = 0
            for a in addrs:
                c = per.get(a, 0) + 1
                per[a] = c
                if c > best:
                    best = c
            return (best - 1) * issue
        per_addr: Dict[int, int] = {}
        for la in lane_accesses:
            per_addr[la.addr] = per_addr.get(la.addr, 0) + 1
        return (max(per_addr.values()) - 1) * issue

    # -- synchronization ---------------------------------------------------

    def fence_cost(self) -> int:
        return FENCE_BASE_COST

    def barrier_cost(self) -> int:
        return BARRIER_BASE_COST

    def lock_cost(self, granted: bool) -> int:
        """Lock acquire: atomic-exchange round trip, or the retry backoff."""
        return self.config.l2_latency if granted else LOCK_RETRY_INTERVAL

    def unlock_cost(self) -> int:
        return self.config.l2_latency
