"""Functional core: decode and architectural state updates, no cycles.

This module is the other half of the engine split described in
``docs/ENGINE.md``: pure per-warp decode (op tuples -> per-lane
:class:`~repro.common.types.LaneAccess` records, plus a per-warp address
list for the batched timing/detection paths) and functional execution
(moving lane values through shared/global memory and completing lanes).
Nothing here reads or writes cycle counts; :mod:`repro.gpu.timing` prices
the same decoded access independently.

Decode produces, in one pass over the lanes, both the per-lane records
the event pipeline consumes and the address list the batched
coalescer/bank-conflict/shadow kernels consume (the shadow tables lift it
into an int64 vector; the warp-local timing kernels sweep it directly — a
warp is at most 32 lanes). ``DecodedAccess.addrs`` is ``None`` when the
lane sizes are not uniform, which sends every consumer down its scalar
walk.
"""

from __future__ import annotations

from typing import Any, Iterable, List, NamedTuple, Optional, Tuple

from repro.common.types import AccessKind, LaneAccess
from repro.gpu.atomics import apply_atomic
from repro.gpu.ops import OP_LOAD, OP_STORE

#: opcode -> access kind for the three memory opcodes
_KIND_OF = {OP_LOAD: AccessKind.READ, OP_STORE: AccessKind.WRITE}


class DecodedAccess(NamedTuple):
    """One decoded warp memory op-group.

    ``addrs`` is a per-lane address list (lane order) when every lane has
    the same access size; ``size``
    is that uniform size (0 when ``addrs`` is None). ``critical_any`` is
    precomputed so the emission path does not rescan the lanes.
    """

    kind: AccessKind
    lanes: List[LaneAccess]
    addrs: Optional[List[int]]
    size: int
    critical_any: bool = False


def decode_kind(code: int) -> AccessKind:
    """Access kind of one memory opcode (groups are opcode-homogeneous)."""
    return _KIND_OF.get(code, AccessKind.ATOMIC)


def decode_lanes(code: int,
                 lanes: Iterable[Tuple[int, Any]]
                 ) -> Tuple[AccessKind, List[LaneAccess]]:
    """Scalar decode: one memory op-group -> per-lane access records."""
    kind = decode_kind(code)
    lane_accesses = [
        LaneAccess(lane_idx, t.pending[2], t.pending[3], kind,
                   t.lock_sig, t.critical_depth > 0)
        for lane_idx, t in lanes
    ]
    return kind, lane_accesses


def decode_warp(code: int, lanes: List[Tuple[int, Any]],
                clean: bool = False) -> DecodedAccess:
    """Decode an op-group into lane records plus the address vector.

    ``clean`` asserts no lane of the issuing warp has ever executed a
    lock-acquire (``Warp.lock_touched`` is False): every lock signature
    is 0 and no lane is inside a critical section, so the per-lane
    lock-state reads are skipped.
    """
    kind = decode_kind(code)
    lane_accesses: List[LaneAccess] = []
    append = lane_accesses.append
    # hot loop: build lane tuples through tuple.__new__ to skip the
    # generated NamedTuple constructor frame per lane
    _new: Any = tuple.__new__
    la = LaneAccess
    if clean:
        addrs: List[int] = []
        addrs_append = addrs.append
        sz0 = lanes[0][1].pending[3] if lanes else 0
        same = True
        for lane_idx, t in lanes:
            p = t.pending
            addr = p[2]
            append(_new(la, (lane_idx, addr, p[3], kind, 0, False)))
            addrs_append(addr)
            if p[3] != sz0:
                same = False
        if not same or not lanes:
            return DecodedAccess(kind, lane_accesses, None, 0, False)
        return DecodedAccess(kind, lane_accesses, addrs, sz0, False)
    critical_any = False
    addr_list: List[int] = []
    addr_append = addr_list.append
    size0 = lanes[0][1].pending[3] if lanes else 0
    uniform = True
    for lane_idx, t in lanes:
        p = t.pending
        addr = p[2]
        size = p[3]
        crit = t.critical_depth > 0
        if crit:
            critical_any = True
        append(_new(la, (lane_idx, addr, size, kind,
                         t.lock_sig, crit)))
        addr_append(addr)
        if size != size0:
            uniform = False
    if not uniform or not lanes:
        return DecodedAccess(kind, lane_accesses, None, 0, critical_any)
    return DecodedAccess(kind, lane_accesses, addr_list, size0, critical_any)


# ---------------------------------------------------------------------------
# functional execution: lane values move, lanes complete
# ---------------------------------------------------------------------------

def execute_compute(warp: Any, lanes: List[Tuple[int, Any]]) -> Tuple[int, int]:
    """Complete a compute group; returns (max depth, total instructions)."""
    n = 0
    total = 0
    for _, t in lanes:
        n = max(n, t.pending[1])
        total += t.pending[1]
    for _, t in lanes:
        warp.complete_lane(t)
    return n, total


def execute_shared(warp: Any, block: Any, code: int,
                   lanes: List[Tuple[int, Any]],
                   lane_accesses: List[LaneAccess]) -> None:
    """Move values through shared memory and complete the lanes.

    Shared atomics serialize per address in lane order, matching the
    hardware's bank-conflict replay.
    """
    # hot loops: index the block's value list directly and complete lanes
    # inline (pending=None queues the lane for the warp's next refill)
    sv = block.shared_values
    if code == OP_LOAD:
        for la, (_, t) in zip(lane_accesses, lanes):
            t.pending = None
            t.send_value = sv[la[1]]
    elif code == OP_STORE:
        for _, t in lanes:
            op = t.pending
            sv[op[2]] = float(op[4])
            t.pending = None
            t.send_value = None
    else:
        for _, t in lanes:
            op = t.pending
            addr = op[2]
            old = sv[addr]
            sv[addr] = float(apply_atomic(op[4], old, op[5], op[6]))
            t.pending = None
            t.send_value = old


def execute_global(warp: Any, mem: Any, code: int,
                   lanes: List[Tuple[int, Any]],
                   lane_accesses: List[LaneAccess]) -> None:
    """Move values through device memory and complete the lanes."""
    if code == OP_LOAD:
        for la, (_, t) in zip(lane_accesses, lanes):
            warp.complete_lane(t, mem.load(la.addr))
    elif code == OP_STORE:
        for _, t in lanes:
            op = t.pending
            mem.store(op[2], op[4])
            warp.complete_lane(t)
    else:
        # serialize same-address atomics in lane order
        for _, t in lanes:
            op = t.pending
            old = mem.load(op[2])
            mem.store(op[2], apply_atomic(op[4], old, op[5], op[6]))
            warp.complete_lane(t, old)


def execute_fence(warp: Any, lanes: List[Tuple[int, Any]]) -> None:
    """Complete fence lanes and advance the warp's fence epoch."""
    for _, t in lanes:
        warp.complete_lane(t)
    warp.note_fence()
