"""Lower a :class:`FuzzProgram` to per-warp access streams.

The static analyzer cannot reason statement-by-statement, because the
simulator's warp scheduler groups pending lane operations by
``(opcode, space, itemsize)`` only (:func:`repro.gpu.ops.group_key`):
when lanes diverge, ops *from different statements* can merge into one
warp instruction, and the pre-issue intra-warp WAW check fires on the
merged footprint. So lowering **runs the interpreter**: every thread is
the simulator's own kernel generator
(:func:`repro.fuzz.program._fuzz_kernel`) over a real
:class:`~repro.gpu.context.ThreadCtx` and the real device arrays
:func:`repro.fuzz.program.program_arrays` allocates, and every warp is a
:class:`repro.gpu.warp.Warp` whose ``next_group`` — generator pump,
barrier parking and :func:`repro.gpu.warp.select_group` (lock
acquisitions issue last, else lowest pending lane first) — folds the 32
lane streams into the warp's instruction stream. Lock grants go through
a per-warp :class:`repro.gpu.atomics.LockTable`. Loads answer 0.0:
values never choose an address in the IR. No simulator, SM, timing or
memory model is involved.

Each warp is lowered as if no other warp ever held its locks: non-lock
groups drain before lock groups and a lane's ops issue in program order,
so the stream is the one the simulator issues for a lock-free program.
Where another warp holds a lock, the simulator grants it later and can
regroup the lanes around the retry; the accesses stay the same
(``tests/analyze/test_lowering_trace.py``). Barrier epochs are exact —
every lane of a block passes the same uniform barriers (the IR cannot
express a lane-dependent barrier), so "number of barriers passed" is the
block's barrier epoch at each access.

Each thread runs its statements through an iterator that records the
current statement index; a memory op's witness tag and ``fenced`` flag
derive from that statement and the op's position in it.

Outputs per warp: the ordered list of :class:`WarpInstr` (memory
instruction groups with per-lane byte footprints, locksets, and the
barrier epoch), plus the stream positions of its ``__threadfence``
issues — which makes "may this warp fence after position p" an exact
query instead of an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from repro.analyze.scopes import SCOPE_DEVICE, fence_scope, publishes
from repro.common.types import Dim3, MemSpace
from repro.fuzz.program import (
    FuzzProgram,
    _fuzz_kernel,
    make_kernel,
    program_arrays,
)
from repro.gpu.atomics import LockTable
from repro.gpu.context import ThreadCtx
from repro.gpu.device import DeviceMemory
from repro.gpu.ops import (
    OP_ATOMIC,
    OP_FENCE,
    OP_LOAD,
    OP_LOCK,
    OP_STORE,
    OP_UNLOCK,
)
from repro.gpu.warp import ThreadState, Warp

_WARP = 32

#: array names used throughout the analyzer
A_GLOBAL = "fuzz_g"
A_BYTES = "fuzz_bytes"
A_SHARED = "sh"


def device_layout(program: FuzzProgram) -> Dict[str, int]:
    """Base device byte of each array: ``run_program``'s allocation on a
    fresh :class:`DeviceMemory` (whose value store stays unallocated);
    the shared array sits at offset 0 of its block's shared memory."""
    layout = {a.name: a.base
              for a in program_arrays(program, DeviceMemory())}
    layout[A_SHARED] = 0
    return layout


class LaneAccess(NamedTuple):
    """One lane's slice of a warp memory instruction."""

    tid: int                  # global thread id
    lane: int
    array: str
    addr: int                 # array-local byte offset
    size: int
    locks: frozenset = frozenset()
    stmt: int = -1
    tag: str = ""
    fenced: bool = False


@dataclass(frozen=True)
class WarpInstr:
    """One issued warp memory instruction (a merged lane group)."""

    pos: int                  # issue position in the warp's stream
    epoch: int                # block barrier epoch at issue
    kind: str                 # read | write | atomic
    space: str                # G | S
    lanes: Tuple[LaneAccess, ...]


@dataclass
class WarpStream:
    """Everything the passes need to know about one warp."""

    warp: int                 # grid-wide warp id (gtid // 32)
    block: int
    instrs: List[WarpInstr] = field(default_factory=list)
    #: (stream position, fence-scope lattice point) per issued fence
    fence_positions: List[Tuple[int, int]] = field(default_factory=list)

    def may_fence_after(self, pos: int, scope: int = SCOPE_DEVICE) -> bool:
        """May this warp later issue a fence publishing at ``scope``?

        Single-device rules query device scope (any IR fence
        qualifies, preserving pre-scope behavior); the cross-device
        classifier queries system scope.
        """
        return any(f > pos and publishes(s, scope)
                   for f, s in self.fence_positions)


_KIND = {OP_LOAD: "read", OP_STORE: "write", OP_ATOMIC: "atomic"}


def _site_tag(st: dict, k: int) -> str:
    """Witness tag of a thread's ``k``-th memory op in statement ``st``."""
    op = st["op"]
    if op == "tree":  # a seed store, then load, load, store per level
        return "tree:seed" if k == 0 else f"tree:lvl{(k - 1) // 3 + 1}"
    if op == "locked":
        return ("crit:load", "crit:store")[k]
    if op == "div":
        return "div:write"
    kind = st.get("kind", "write")
    if op == "byte" and kind != "write":
        kind = "read"
    return f"{op}:{kind}"


def _tracked(stmts: Sequence[dict], cursor: List[int]) -> Iterator[dict]:
    """``stmts`` in order, recording the current index in ``cursor[0]``."""
    for cursor[0], st in enumerate(stmts):
        yield st


class _Lowering:
    """What the warps of one program share while they are lowered."""

    def __init__(self, program: FuzzProgram) -> None:
        self.program = program
        self.mem = DeviceMemory()
        self.arrays = program_arrays(program, self.mem)
        kernel = make_kernel(program)
        self.shared = kernel.make_shared_arrays(kernel.shared_bytes())
        self.block_dim = Dim3(program.threads)
        self.grid_dim = Dim3(program.blocks)
        #: global device address -> (array, array-local byte offset)
        self.where: Dict[int, Tuple[str, int]] = {}
        #: (statement, op position) -> witness tag
        self.tags: Dict[Tuple[int, int], str] = {}

    def locate(self, addr: int) -> Tuple[str, int]:
        name, base, _ = self.mem.allocation_of(addr)  # type: ignore[misc]
        site = self.where[addr] = (name, addr - base)
        return site

    def tag(self, si: int, k: int) -> str:
        tag = self.tags[si, k] = _site_tag(self.program.stmts[si], k)
        return tag


def _lower_warp(low: _Lowering, warp_id: int) -> WarpStream:
    program = low.program
    base_tid = warp_id * _WARP
    block, first = divmod(base_tid, program.threads)
    # per lane: [current statement, statement of the last memory op,
    # position of that op in its statement]
    cursors: List[List[int]] = []
    threads: List[ThreadState] = []
    for lane in range(_WARP):
        ctx = ThreadCtx((first + lane, 0, 0), (block, 0), low.block_dim,
                        low.grid_dim, _WARP, low.shared)
        cursor = [-1, -1, 0]
        gen = _fuzz_kernel(ctx, *low.arrays, program.threads,
                           _tracked(program.stmts, cursor))
        cursors.append(cursor)
        threads.append(ThreadState(gen, ctx.global_tid))
    warp = Warp(warp_id, first // _WARP, None, threads)
    table = LockTable()
    locksets = [frozenset()] * _WARP
    stream = WarpStream(warp=warp_id, block=block)
    where, tags, stmts = low.where, low.tags, program.stmts
    epoch = pos = 0
    while True:
        group = warp.next_group()
        if group is None:
            if warp.finished:
                return stream
            # every live lane waits at the barrier; the block releases it
            # together (barriers are uniform across the IR), epoch += 1
            warp.release_barrier()
            epoch += 1
            continue
        key, members = group
        code = key[0]
        if code in _KIND:
            shared = key[1] == MemSpace.SHARED
            accesses = []
            for lane, t in members:
                op = t.pending
                cursor = cursors[lane]
                si = cursor[0]
                if cursor[1] == si:
                    k = cursor[2] = cursor[2] + 1
                else:
                    cursor[1] = si
                    k = cursor[2] = 0
                tag = tags.get((si, k)) or low.tag(si, k)
                addr = op[2]
                if shared:  # the shared array sits at block offset 0
                    array, local = A_SHARED, addr
                else:
                    array, local = where.get(addr) or low.locate(addr)
                locks = locksets[lane]
                accesses.append(LaneAccess(
                    t.global_tid, lane, array, local, op[3], locks, si, tag,
                    code == OP_STORE and bool(locks)
                    and bool(stmts[si].get("fence", True))))
                warp.complete_lane(t, 0.0)
            stream.instrs.append(WarpInstr(
                pos=pos, epoch=epoch, kind=_KIND[code],
                space="S" if shared else "G", lanes=tuple(accesses)))
        elif code == OP_LOCK:
            granted = False
            for lane, t in members:
                addr = t.pending[1]
                if table.try_acquire(addr, t.global_tid):
                    t.held_locks.append(addr)
                    locksets[lane] = frozenset(t.held_locks)
                    warp.complete_lane(t)
                    granted = True
                # else: the lane keeps its pending op and retries
            if not granted:  # pragma: no cover - malformed program
                # lock groups issue last, so nothing else can progress
                raise RuntimeError(f"warp {warp_id} deadlocks on locks")
        elif code == OP_UNLOCK:
            for lane, t in members:
                addr = t.pending[1]
                table.release(addr, t.global_tid)
                t.held_locks.remove(addr)
                locksets[lane] = frozenset(t.held_locks)
                warp.complete_lane(t)
        else:
            if code == OP_FENCE:
                # lanes from different fence statements can merge into
                # one issue slot (the group key is opcode-only); the
                # instruction publishes at the strongest merged scope
                stream.fence_positions.append((pos, max(
                    fence_scope(t.pending[1] if len(t.pending) > 1
                                else None)
                    for _, t in members)))
            for _, t in members:
                warp.complete_lane(t)
        pos += 1


def lower_program(program: FuzzProgram) -> List[WarpStream]:
    """Lower every warp of the grid; deterministic for one program."""
    if program.threads % _WARP != 0:
        raise ValueError(f"threads={program.threads} is not a multiple "
                         f"of the warp size")
    low = _Lowering(program)
    return [_lower_warp(low, w)
            for w in range(program.total_threads // _WARP)]
