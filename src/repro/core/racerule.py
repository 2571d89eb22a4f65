"""The race rule: whether two accesses to one byte race, defined once.

The HB oracle (:mod:`repro.core.groundtruth`), the static classifier
(:mod:`repro.analyze.passes`) and the cross-device judges (the
multi-device oracle, :mod:`repro.multigpu.detector` and
:mod:`repro.analyze.multidevice`) decide their pairs here, each passing
in the facts only it knows. The HAccRG shadow tables are the
approximation under test and keep their own logic.

On one device, one warp is ordered (lockstep), and so is one block
across barrier epochs. Shared memory races on every other conflict. In
global memory, a later atomic of a warp in a byte's RMW chain orders it
after earlier atomics; then the §III-B lockset rules apply, with the
Fig. 2(b) exception for an unfenced write under a common lock; atomics
never race each other; and a read of a fenced write is ordered unless
it hits a stale L1 line (§IV-B). Lanes of one instruction race where
their writes overlap, except global atomics. Fence publication and
chain order are ``True``/``False``/``None``: a static judge passes
``None`` when the schedule decides, and the rule then returns a
:class:`Depends` unless both answers give one ordering. Across devices
(docs/MULTIGPU.md), kernels of one host phase are concurrent, only a
system-scope fence publishes, and system atomics serialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from repro.common.types import AccessKind, RaceCategory, RaceKind

_READ = int(AccessKind.READ)
_ATOMIC = int(AccessKind.ATOMIC)


class Race(NamedTuple):
    """A racing pair: its kind, category and whether the read is stale."""

    kind: RaceKind
    category: RaceCategory
    stale: bool = False


class Ordered(str):
    """A named ordering or exemption: the pair cannot race."""


class Depends(str):
    """A named dependence: the outcome turns on the schedule."""


Outcome = Union[Race, Ordered, Depends]

READS = Ordered("read/read pairs never conflict")
LOCKSTEP = Ordered("warp-lockstep ordering")
BARRIER = Ordered("barrier-interval separation")
CHAIN = Ordered("atomic RMW chain orders the pair")
LOCKSET = Ordered("consistent lockset")
LOCK_FENCED = Ordered("consistent lockset; producer fences before unlock")
ATOMICS = Ordered("atomic RMWs serialize in the memory partition")
FENCED = Ordered("producer fenced after the write")
CHAIN_DEPENDS = Depends("atomic-chain ordering is schedule-dependent")
LOCK_FENCE_DEPENDS = Depends("common-lock RAW depends on a later fence "
                             "landing in time")
FENCE_DEPENDS = Depends("RAW outcome depends on fence timing")


def order(prev: Any, cur: Any, shared: bool, published: Optional[bool],
          chain: Optional[bool], stale: bool = False,
          fences: bool = True) -> Outcome:
    """The outcome of ``prev`` then ``cur`` (each with ``wid``, ``bid``,
    ``epoch``, ``locks``, ``atomic``, ``is_write``) on one byte.
    ``published``: ``prev``'s warp fenced after the write, before ``cur``
    reads; ``chain``: ``cur``'s warp did an atomic on the byte after
    ``prev``'s; ``stale``: ``cur`` may read a stale L1 line;
    ``fences=False`` turns the fence rules off (the detector's check)."""
    if not (prev.is_write or cur.is_write):
        return READS
    if prev.wid == cur.wid:
        return LOCKSTEP
    if prev.bid == cur.bid and prev.epoch != cur.epoch:
        return BARRIER
    raw = prev.is_write and not cur.is_write
    kind = (RaceKind.RAW if raw else RaceKind.WAW if prev.is_write
            else RaceKind.WAR)
    if shared:
        return Race(kind, RaceCategory.SHARED_BARRIER)
    if prev.atomic and chain is not False:
        if chain:
            return CHAIN
        unchained = order(prev, cur, shared, published, False, stale, fences)
        return unchained if isinstance(unchained, Ordered) else CHAIN_DEPENDS
    if prev.locks or cur.locks:
        if not prev.locks & cur.locks:
            return Race(kind, RaceCategory.GLOBAL_LOCKSET)
        if not (raw and fences):
            return LOCKSET
        return _fenced(published, LOCK_FENCED,
                       Race(kind, RaceCategory.GLOBAL_FENCE),
                       LOCK_FENCE_DEPENDS)
    if prev.atomic and cur.atomic:
        return ATOMICS
    if not raw:
        return Race(kind, RaceCategory.GLOBAL_BARRIER)
    if stale:
        return Race(kind, RaceCategory.GLOBAL_FENCE, stale=True)
    unfenced = Race(kind, RaceCategory.GLOBAL_BARRIER
                    if prev.bid == cur.bid else RaceCategory.GLOBAL_FENCE)
    if not fences:
        return unfenced
    return _fenced(published, FENCED, unfenced, FENCE_DEPENDS)


def _fenced(published: Optional[bool], ordered: Ordered, race: Race,
            depends: Depends) -> Outcome:
    return depends if published is None else ordered if published else race


def lane_overlap(write: bool, atomic: bool, shared: bool) -> Optional[Race]:
    """The race between two lanes of one warp instruction on one byte:
    none for reads or global atomics (shared atomics are not exempt)."""
    if not write or (atomic and not shared):
        return None
    return Race(RaceKind.WAW, RaceCategory.SHARED_BARRIER if shared
                else RaceCategory.GLOBAL_BARRIER)


RACY, UNKNOWN, SAFE = "racy", "unknown", "race-free"
#: one order's ``(published, chain)`` as a static judge knows them
Facts = Callable[[Any, Any], Tuple[Optional[bool], Optional[bool]]]
#: the orderings that need no facts and hold in either order
_SYNCED = (READS, LOCKSTEP, BARRIER)


def classify(a: Any, b: Any, shared: bool, facts: Facts
             ) -> Tuple[str, Tuple[str, ...], Tuple[str, ...]]:
    """``(status, kinds | proofs | reasons, categories)`` of a pair: racy
    if both orders race under ``facts``, race-free if both are ordered,
    else unknown. Facts are asked only when the pair needs them."""
    first = order(a, b, shared, False, False)
    if isinstance(first, Ordered) and first in _SYNCED:
        return SAFE, (first,), ()
    first = order(a, b, shared, *facts(a, b))
    second = order(b, a, shared, *facts(b, a))
    if isinstance(first, Race) and isinstance(second, Race):
        return (RACY, tuple(sorted({first.kind.name, second.kind.name})),
                tuple(sorted({first.category.name, second.category.name})))
    if isinstance(first, Ordered) and isinstance(second, Ordered):
        return SAFE, tuple(sorted({first, second})), ()
    reasons = {o for o in (first, second) if isinstance(o, Depends)}
    return UNKNOWN, tuple(sorted(reasons)) or ("order-dependent outcome",), ()


SAME_DEVICE = Ordered("same-device accesses are outside the cross-device "
                      "race class")
PHASES = Ordered("cross-phase: the host synchronize orders all devices at "
                 "the phase boundary")
SYSTEM_ATOMICS = Ordered("system atomics serialize at the home node")
SYSTEM_FENCED = Ordered("writer publishes with a system-scope fence within "
                        "the phase")
SYSTEM_FENCE_DEPENDS = Depends("publication depends on a conditional "
                               "system-scope fence")


@dataclass(frozen=True)
class DeviceEndpoint:
    """One access endpoint in the cross-device analysis (plain data)."""

    device: int
    phase: int
    wid: int             #: device-local warp id
    tid: int             #: device-local grid thread id
    bid: int
    kind: int            #: AccessKind int value
    #: a system-scope fence follows the write in its phase (``None``:
    #: only a conditional one, for static judges)
    sys_fenced_after: Optional[bool] = False


def cross_device_order(a: DeviceEndpoint, b: DeviceEndpoint) -> Outcome:
    """The outcome of a cross-device pair, the same in either order."""
    if a.device == b.device:
        return SAME_DEVICE
    if a.phase != b.phase:
        return PHASES
    a_w, b_w = a.kind != _READ, b.kind != _READ
    if not (a_w or b_w):
        return READS
    if a.kind == _ATOMIC and b.kind == _ATOMIC:
        return SYSTEM_ATOMICS
    if a_w and b_w:
        return Race(RaceKind.WAW, RaceCategory.XGPU_SHARING)
    return _fenced((a if a_w else b).sys_fenced_after, SYSTEM_FENCED,
                   Race(RaceKind.RAW, RaceCategory.XGPU_FENCE),
                   SYSTEM_FENCE_DEPENDS)


def cross_device_verdict(a: DeviceEndpoint, b: DeviceEndpoint
                         ) -> Optional[Tuple[RaceKind, RaceCategory]]:
    """``(kind, category)`` of a racing cross-device pair, else ``None``."""
    outcome = cross_device_order(a, b)
    return outcome[:2] if isinstance(outcome, Race) else None


def first_races(eps: Sequence[DeviceEndpoint]
                ) -> Dict[Tuple[RaceKind, RaceCategory], Tuple[int, int]]:
    """The first racing pair per ``(kind, category)``, in pair order, as
    endpoint indices with the lower device first."""
    first: Dict[Tuple[RaceKind, RaceCategory], Tuple[int, int]] = {}
    for i, a in enumerate(eps):
        for j in range(i + 1, len(eps)):
            verdict = cross_device_verdict(a, eps[j])
            if verdict is not None and verdict not in first:
                first[verdict] = (i, j) if a.device < eps[j].device else (j, i)
    return first
