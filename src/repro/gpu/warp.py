"""Warp-lockstep execution of kernel thread generators.

A :class:`Warp` owns up to ``warp_size`` thread generators. Each scheduling
step the warp (1) advances every live lane that has no pending op, (2) groups
pending ops by :func:`repro.gpu.ops.group_key` — lanes in the same group
execute as one SIMD instruction, distinct groups serialize (branch
divergence) — and (3) hands one group to the SM for execution.

Lockstep ordering is exactly the property HAccRG's warp-aware race
suppression relies on (§III-A "Impact of Warps on Reporting Races"), so the
warp model is the fidelity-critical piece of the substrate.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.gpu.ops import (
    OP_ATOMIC,
    OP_BARRIER,
    OP_LOAD,
    OP_LOCK,
    OP_STORE,
    group_key,
)

#: opcodes whose group key includes (space, size) — see :func:`group_key`
_MEM_CODES = frozenset((OP_LOAD, OP_STORE, OP_ATOMIC))

#: Sentinel stored in ``pending`` for a finished lane.
_DONE = None


class ThreadState:
    """Execution state of one lane: its generator plus lock/critical state."""

    __slots__ = ("gen", "pending", "send_value", "done", "global_tid",
                 "lock_sig", "held_locks", "critical_depth")

    def __init__(self, gen: Generator, global_tid: int) -> None:
        self.gen = gen
        self.pending: Optional[tuple] = None
        self.send_value: Any = None
        self.done = False
        self.global_tid = global_tid
        # HAccRG atomic-ID state (maintained by the lock unit, read by RDUs)
        self.lock_sig = 0           # Bloom signature of held locks
        self.held_locks: List[int] = []
        self.critical_depth = 0


def select_group(pairs: Sequence[Tuple[int, ThreadState]]
                 ) -> Tuple[tuple, List[Tuple[int, ThreadState]]]:
    """The SIMD group a divergent warp issues next.

    ``pairs`` are the warp's live ``(lane, thread)`` pairs in lane order,
    each with a pending op, at least one of them not a barrier. Pending
    ops group by :func:`repro.gpu.ops.group_key`, barrier lanes stay out,
    and the group whose lowest lane is smallest issues first — except
    that lock-acquire groups issue last: lanes that already hold a lock
    must drain their critical sections before spinners retry, which is
    how the divergent do-while spin-lock idiom behaves on real SIMT
    hardware (the acquiring branch runs while losers loop). Returns
    ``(group_key, members)``.
    """
    groups: Dict[tuple, List[Tuple[int, ThreadState]]] = {}
    for pair in pairs:
        op = pair[1].pending
        if op[0] == OP_BARRIER:
            continue
        groups.setdefault(group_key(op), []).append(pair)
    key = min(groups, key=lambda k: (k[0] == OP_LOCK, groups[k][0][0]))
    return key, groups[key]


class Warp:
    """A warp: lockstep bundle of lanes plus its scheduling/timing state."""

    __slots__ = ("warp_id", "warp_in_block", "block", "lanes", "ready_at",
                 "at_barrier", "fence_id", "pc", "finished", "retries",
                 "lock_touched", "_pairs")

    def __init__(self, warp_id: int, warp_in_block: int, block,
                 lanes: Sequence[ThreadState]) -> None:
        self.warp_id = warp_id              # grid-wide unique
        self.warp_in_block = warp_in_block
        self.block = block
        self.lanes: List[ThreadState] = list(lanes)
        self.ready_at = 0                   # SM cycle at which issue is legal
        self.at_barrier = False
        self.fence_id = 0                   # per-warp fence epoch (§III-C)
        self.pc = 0                         # dynamic op-group counter
        self.finished = False
        self.retries = 0                    # consecutive failed lock attempts
        # sticky: set on the warp's first lock-acquire group; while False,
        # every lane has lock_sig == 0 and critical_depth == 0, so decode
        # can skip the per-lane lock-state reads
        self.lock_touched = False
        # cached live (lane, thread) pairs; lanes only die inside
        # next_group's generator pump, which rebuilds the cache
        self._pairs: Optional[List[Tuple[int, ThreadState]]] = None

    # ------------------------------------------------------------------

    def live_lanes(self) -> List[Tuple[int, ThreadState]]:
        """(lane index, state) pairs for lanes that have not finished."""
        return [(i, t) for i, t in enumerate(self.lanes) if not t.done]

    def next_group(self) -> Optional[Tuple[tuple, List[Tuple[int, ThreadState]]]]:
        """Select the next SIMD group to issue.

        Returns ``(group_key, [(lane, thread), ...])`` or ``None`` when the
        warp has nothing issuable (finished, or all lanes parked at a
        barrier). Barrier groups are deferred until *every* live lane is at
        the barrier, matching reconvergence-before-sync semantics; among
        divergent non-barrier groups :func:`select_group` picks the one
        to issue (a deterministic immediate-post-dominator-free
        approximation of a SIMT stack).
        """
        if self.finished:
            return None

        # Single merged sweep over the cached live pairs: pump each lane's
        # generator if it has no pending op, classify the op, and track
        # group-key homogeneity inline. Lanes only die inside this pump,
        # so the live-pair list is reusable across calls; a converged
        # warp (the overwhelmingly common case) issues the cached list
        # itself, with no per-call tuple or list builds.
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = [
                (i, t) for i, t in enumerate(self.lanes) if not t.done
            ]
        barrier_lanes = 0
        any_dead = False
        op0: Optional[tuple] = None
        code0 = 0
        f1 = f3 = 0
        is_mem = False
        homogeneous = True
        for pair in pairs:
            t = pair[1]
            op = t.pending
            if op is _DONE:
                try:
                    op = t.gen.send(t.send_value)
                except StopIteration:
                    t.pending = _DONE
                    t.send_value = None
                    t.done = True
                    any_dead = True
                    continue
                t.pending = op
                t.send_value = None
            if op[0] == OP_BARRIER:
                barrier_lanes += 1
                continue
            if op0 is None:
                op0 = op
                code0 = op[0]
                is_mem = code0 in _MEM_CODES
                if is_mem:
                    f1 = op[1]
                    f3 = op[3]
            elif homogeneous and (
                    op[0] != code0
                    or (is_mem and (op[1] != f1 or op[3] != f3))):
                homogeneous = False

        if any_dead:
            pairs = self._pairs = [p for p in pairs if not p[1].done]

        if op0 is None:
            if barrier_lanes > 0:
                self.at_barrier = True
            elif not pairs:
                self.finished = True
            return None

        if homogeneous and barrier_lanes == 0:
            return group_key(op0), pairs

        return select_group(pairs)

    def release_barrier(self) -> None:
        """Resume all lanes parked at a barrier (block-wide release)."""
        if not self.at_barrier:
            raise SimulationError("release_barrier on a warp not at barrier")
        for t in self.lanes:
            if not t.done and t.pending is not None and t.pending[0] == OP_BARRIER:
                t.pending = _DONE
                t.send_value = None
        self.at_barrier = False

    def complete_lane(self, t: ThreadState, result: Any = None) -> None:
        """Mark one lane's pending op as executed, queueing its result."""
        t.pending = _DONE
        t.send_value = result

    def note_fence(self) -> int:
        """Record completion of a warp-wide fence; returns the new epoch."""
        self.fence_id += 1
        return self.fence_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fin" if self.finished else ("bar" if self.at_barrier else "run")
        return f"Warp(id={self.warp_id}, blk={self.block.block_id}, {state})"
