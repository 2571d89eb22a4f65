"""Lowered warp streams against the simulator's recorded traces.

The analyzer's verdicts are only as sound as its lowering: every warp's
lowered instruction stream must be the instruction stream the simulator
issues for that warp. Each instruction is compared as
``(space, kind, [(lane, device addr, size), ...])``. Lock-free programs
must match exactly, in order. Programs with ``locked`` statements must
match as a per-lane access multiset: cross-warp lock contention makes
the simulator retry lock groups later, which can regroup the lanes
around them, while the lowering grants locks per warp.
"""

from collections import Counter

import pytest

from repro.analyze import device_layout, lower_program
from repro.common.types import AccessKind, MemSpace
from repro.fuzz.generator import generate_program
from repro.fuzz.program import record_program

SEEDS = range(300)

_SPACE = {"S": int(MemSpace.SHARED), "G": int(MemSpace.GLOBAL)}
_KIND = {"read": int(AccessKind.READ), "write": int(AccessKind.WRITE),
         "atomic": int(AccessKind.ATOMIC)}


def _lowered(program):
    """warp -> [(space, kind, ((lane, device addr, size), ...))]."""
    layout = device_layout(program)
    out = {}
    for stream in lower_program(program):
        instrs = out[stream.warp] = []
        for ins in stream.instrs:
            space = _SPACE[ins.space]
            lanes = tuple(
                (la.lane, la.addr if ins.space == "S"
                 else layout[la.array] + la.addr, la.size)
                for la in ins.lanes)
            instrs.append((space, _KIND[ins.kind], lanes))
    return out


def _recorded(program):
    """The same view of the recorded trace's access events."""
    out = {}
    for ev in record_program(program):
        if ev.kind != "A":
            continue
        out.setdefault(ev.warp_id, []).append((
            int(ev.space), int(ev.access_kind),
            tuple((la[0], la[1], la[2]) for la in ev.lanes)))
    return out


def _lane_multiset(instrs):
    return Counter((space, kind) + lane
                   for space, kind, lanes in instrs for lane in lanes)


@pytest.mark.parametrize("seed", SEEDS)
def test_lowered_streams_match_recorded_trace(seed):
    program = generate_program(seed)
    lowered = _lowered(program)
    recorded = _recorded(program)
    # warps that issue no memory instruction have no trace events
    assert {w for w, instrs in lowered.items() if instrs} == set(recorded)
    if not any(st["op"] == "locked" for st in program.stmts):
        for warp, instrs in recorded.items():
            assert lowered[warp] == instrs, f"warp {warp}"
        return
    for warp, instrs in recorded.items():
        assert _lane_multiset(lowered[warp]) == _lane_multiset(instrs), \
            f"warp {warp}"
