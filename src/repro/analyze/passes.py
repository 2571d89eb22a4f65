"""Static race classification over lowered warp streams.

The analyzer's soundness contract: its verdicts must hold for **every**
legal interleaving, while the ground-truth oracle it is graded against
observes exactly **one** deterministic schedule. So each potentially
conflicting pair of endpoints is evaluated *twice* — once with each
endpoint as the earlier access — through the race rule the oracle also
calls (:func:`repro.core.racerule.classify` over
:func:`repro.core.racerule.order`), with ``None`` for every fact the
schedule decides:

- both orders race        -> the byte is RACY (witness pair attached);
- both orders are ordered -> SAFE, with the proof that ordered them;
- mixed / fence-dependent -> UNKNOWN (never claimed either way).

Verdicts are exact per byte, but state is kept per elementary span
segment: each array's lane spans are cut at every lane's first and
last byte (:func:`repro.core.groundtruth.cut_segments`), so a segment
splits exactly where some lane starts or ends inside it, and every byte
of a segment is covered by the same lanes. Each segment is classified
once, and its :class:`SegmentFinding` holds for all of its bytes.

Fences are the main source of UNKNOWN: ``__threadfence`` suppresses a
RAW pair only when it lands between the write and the read *in the
observed schedule*, which a static pass cannot pin down — except in two
robust cases. A producer that provably never fences after its write
races in both orders; and a critical-section store fenced before its
unlock is ordered ahead of any reader that must acquire the same lock
(the paper's Fig. 2(b) protocol, and the oracle's common-lock rule).
The stale-L1 check can only *add* races to unordered pairs, so it never
invalidates a SAFE claim — those rest on warp lockstep, barrier-interval
separation, or lockset rules, all of which the oracle applies before
its stale check.

Two extra passes close the gaps pairwise reasoning leaves:

- **intra-warp WAW**: overlapping lane footprints inside one emulated
  instruction group (the pre-issue associative check; global atomics
  exempt, shared atomics not);
- **lockset coupling**: pairwise RAW under a common lock is
  asymmetric (the WAR order is lock-ordered), but when two warps each
  run an *unfenced* read-modify-write section under the same lock,
  whichever runs second reads the other's unfenced store — a guaranteed
  RAW race in every schedule (the ``missing_fence`` bug class).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import permutations, product
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from repro.analyze.lower import A_SHARED, WarpStream
from repro.core.groundtruth import cut_segments
from repro.core.racerule import (LOCKSTEP, RACY, SAFE, UNKNOWN, Facts, Race,
                                 classify, lane_overlap, order)


@dataclass(frozen=True)
class Endpoint:
    """One deduplicated byte-level access endpoint (static mirror of the
    oracle's ``_Endpoint``)."""

    tid: int
    wid: int
    bid: int
    epoch: int
    locks: FrozenSet[int]
    atomic: bool
    is_write: bool
    pos: int                  # warp-stream position (fence queries)
    stmt: int
    tag: str
    fenced: bool              # fenced inside its critical section


@dataclass
class SegmentFinding:
    """Classification of the array bytes ``[lo, hi)``: one elementary
    span segment, every byte of which gets this verdict."""

    array: str
    lo: int
    hi: int
    status: str               # RACY | UNKNOWN | SAFE
    kinds: Tuple[str, ...] = ()
    categories: Tuple[str, ...] = ()
    proofs: Tuple[str, ...] = ()
    reasons: Tuple[str, ...] = ()
    witness: Optional[Tuple[Endpoint, Endpoint]] = None


@dataclass
class _Accesses:
    writers: List[Endpoint] = field(default_factory=list)
    readers: List[Endpoint] = field(default_factory=list)


#: one lane of one instruction: (lo, hi, instruction number, endpoint)
_LaneSpan = Tuple[int, int, int, Endpoint]
#: one elementary segment: (lo, hi, covering lane spans in stream order)
_Segment = Tuple[int, int, List[_LaneSpan]]


class _AtomicSpans:
    """Which bytes each warp atomics, as merged spans per (warp, array).

    ``(warp, array, byte) in spans`` holds when that warp performs an
    atomic on that byte.
    """

    def __init__(self, spans: Dict[Tuple[int, str], List[Tuple[int, int]]]
                 ) -> None:
        self._starts: Dict[Tuple[int, str], List[int]] = {}
        self._ends: Dict[Tuple[int, str], List[int]] = {}
        for key, pieces in spans.items():
            starts: List[int] = []
            ends: List[int] = []
            for lo, hi in sorted(pieces):
                if ends and lo <= ends[-1]:
                    ends[-1] = max(ends[-1], hi)
                else:
                    starts.append(lo)
                    ends.append(hi)
            self._starts[key] = starts
            self._ends[key] = ends

    def __contains__(self, item: Tuple[int, str, int]) -> bool:
        warp, array, byte = item
        starts = self._starts.get((warp, array))
        if not starts:
            return False
        i = bisect_right(starts, byte) - 1
        return i >= 0 and byte < self._ends[(warp, array)][i]


class AnalysisContext:
    """Per-program facts the pair rules query."""

    def __init__(self, streams: Sequence[WarpStream]) -> None:
        self._streams = {s.warp: s for s in streams}
        spans: Dict[Tuple[int, str], List[Tuple[int, int]]] = {}
        for s in streams:
            for ins in s.instrs:
                if ins.kind != "atomic":
                    continue
                for la in ins.lanes:
                    spans.setdefault((s.warp, la.array), []).append(
                        (la.addr, la.addr + la.size))
        #: ``(warp, array, byte) in warp_atomic_bytes`` when that warp
        #: atomics that byte
        self.warp_atomic_bytes = _AtomicSpans(spans)

    def may_fence_after(self, ep: Endpoint) -> bool:
        return self._streams[ep.wid].may_fence_after(ep.pos)


def collect_endpoints(streams: Sequence[WarpStream]
                      ) -> Dict[str, Iterator[_Segment]]:
    """Every array's elementary span segments, in byte order.

    Each lane of each instruction is one span ``(lo, hi, n, endpoint)``
    (``n`` numbers the instructions); :func:`cut_segments` cuts an
    array's spans at every span boundary, so every byte of a segment is
    covered by the same lanes. Shared arrays are cut across all blocks
    at once, so the per-block verdicts of one segment cover the same
    bytes.
    """
    spans: Dict[str, List[_LaneSpan]] = {}
    n = 0
    for s in streams:
        for ins in s.instrs:
            n += 1
            for la in ins.lanes:
                ep = Endpoint(
                    tid=la.tid, wid=s.warp, bid=s.block,
                    epoch=ins.epoch, locks=la.locks,
                    atomic=ins.kind == "atomic",
                    is_write=ins.kind != "read", pos=ins.pos,
                    stmt=la.stmt, tag=la.tag, fenced=la.fenced)
                spans.setdefault(la.array, []).append(
                    (la.addr, la.addr + la.size, n, ep))
    return {array: cut_segments(lanes) for array, lanes in spans.items()}


def segment_accesses(array: str, covering: List[_LaneSpan]
                     ) -> Dict[int, _Accesses]:
    """One segment's endpoints per block, deduplicated exactly like the
    oracle's shadow.

    Keys are the block for shared memory (each block has its own shared
    array and oracle shadow) and -1 for global arrays. Within a block,
    writers dedup on ``(warp, epoch, locks, atomic)`` and readers on
    ``(warp, epoch, locks)``, keeping the latest stream position — the
    oracle's "latest same-key endpoint dominates" rule.
    """
    shared = array == A_SHARED
    cells: Dict[int, _Accesses] = {}
    seen: Dict[tuple, int] = {}
    for _lo, _hi, _n, ep in covering:
        blk = ep.bid if shared else -1
        cell = cells.get(blk)
        if cell is None:
            cell = cells[blk] = _Accesses()
        if ep.is_write:
            dedup: tuple = (blk, True, ep.wid, ep.epoch, ep.locks,
                            ep.atomic)
            lst = cell.writers
        else:
            dedup = (blk, False, ep.wid, ep.epoch, ep.locks)
            lst = cell.readers
        i = seen.get(dedup)
        if i is None:
            seen[dedup] = len(lst)
            lst.append(ep)
        else:
            lst[i] = ep   # latest pos dominates
    return cells


def facts(array: str, byte: int, ctx: AnalysisContext) -> Facts:
    """What a static pass proves for one order on ``byte``: a store fenced
    before its unlock is published to readers of the same lock, one whose
    warp never fences again is not, and no chain orders a later endpoint
    whose warp never atomics the byte. Anything else is ``None``."""
    def of(prev: Endpoint, cur: Endpoint
           ) -> Tuple[Optional[bool], Optional[bool]]:
        return (True if prev.fenced and prev.locks
                else None if ctx.may_fence_after(prev) else False,
                None if (cur.wid, array, byte) in ctx.warp_atomic_bytes
                else False)
    return of


# ---------------------------------------------------------------------------
# whole-byte classification
# ---------------------------------------------------------------------------

def _lockset_coupling(cell: _Accesses, ctx: AnalysisContext, shared: bool,
                      known: Facts
                      ) -> Optional[Tuple[Race, Endpoint, Endpoint]]:
    """Cross-warp unfenced RMW sections under one common lock.

    Each qualifying warp both writes (unfenced, and provably never
    fences later) and reads the byte while holding lock L. With two or
    more such warps, the section that runs second reads the first's
    unfenced store in *every* schedule: a robust RAW race the pairwise
    two-order rule cannot see (its WAR order is lock-ordered). The
    witness is the first writer/reader pair of two such warps that
    :func:`repro.core.racerule.order` does not order (barriers can order
    some of them), with the race it returns.
    """
    writers_by_lock: Dict[int, Dict[int, List[Endpoint]]] = {}
    readers_by_lock: Dict[int, Dict[int, List[Endpoint]]] = {}
    for w in cell.writers:
        if w.locks and not w.fenced and not ctx.may_fence_after(w):
            for lk in w.locks:
                writers_by_lock.setdefault(lk, {}).setdefault(
                    w.wid, []).append(w)
    for r in cell.readers:
        for lk in r.locks:
            readers_by_lock.setdefault(lk, {}).setdefault(
                r.wid, []).append(r)
    for lk, writers in sorted(writers_by_lock.items()):
        readers = readers_by_lock.get(lk, {})
        warps = sorted(set(writers) & set(readers))
        for a, b in permutations(warps, 2):
            for w, r in product(writers[a], readers[b]):
                race = order(w, r, shared, *known(w, r))
                if isinstance(race, Race):
                    return race, w, r
    return None


def classify_segment(array: str, lo: int, hi: int, cell: _Accesses,
                     ctx: AnalysisContext) -> SegmentFinding:
    """Fold every conflicting pair of one segment into a finding.

    The pair rules see the segment's first byte; every byte of the
    segment has the same endpoints, so they get the same verdict.
    """
    kinds: Set[str] = set()
    categories: Set[str] = set()
    proofs: Set[str] = set()
    reasons: Set[str] = set()
    witness: Optional[Tuple[Endpoint, Endpoint]] = None
    status = SAFE

    def _sort_key(ep: Endpoint) -> tuple:
        return (ep.stmt, ep.tid, ep.pos)

    def _merge(st: str, info: Tuple[str, ...], cats: Tuple[str, ...],
               pair: Tuple[Endpoint, Endpoint]) -> None:
        nonlocal status, witness
        if st == RACY:
            kinds.update(info)
            categories.update(cats)
            cand = tuple(sorted(pair, key=_sort_key))
            if status != RACY or witness is None \
                    or tuple(map(_sort_key, cand)) < \
                    tuple(map(_sort_key, witness)):
                witness = cand  # deterministic: smallest witness wins
            status = RACY
        elif st == UNKNOWN:
            reasons.update(info)
            if status == SAFE:
                status = UNKNOWN
        else:
            proofs.update(info)

    # pairs within one warp are ordered by lockstep: only their proof
    # is kept, and the rule judges the cross-warp pairs
    writers, readers = cell.writers, cell.readers
    pairs = [(w, o) for i, w in enumerate(writers) for o in writers[i + 1:]
             if w.wid != o.wid]
    pairs += [(w, r) for w in writers for r in readers if w.wid != r.wid]
    all_pairs = len(writers) * (len(writers) - 1) // 2 \
        + len(writers) * len(readers)
    if len(pairs) < all_pairs:
        proofs.add(LOCKSTEP)
    shared, known = array == A_SHARED, facts(array, lo, ctx)
    for a, b in pairs:
        _merge(*classify(a, b, shared, known), (a, b))

    coupled = _lockset_coupling(cell, ctx, shared, known)
    if coupled is not None:
        race, w, r = coupled
        _merge(RACY, (race.kind.name,), (race.category.name,), (w, r))

    if not all_pairs and coupled is None:
        if not writers:
            proofs.add("read-only bytes cannot race")
        else:
            proofs.add("thread-private indexing")

    return SegmentFinding(
        array=array, lo=lo, hi=hi, status=status,
        kinds=tuple(sorted(kinds)),
        categories=tuple(sorted(categories)),
        proofs=tuple(sorted(proofs)),
        reasons=tuple(sorted(reasons)),
        witness=witness)


def intra_warp_findings(array: str, lo: int, hi: int,
                        covering: List[_LaneSpan]
                        ) -> Optional[SegmentFinding]:
    """Same-instruction overlapping writes of one warp (pre-issue check).

    The first instruction, in stream order, with two lanes writing the
    segment races if :func:`repro.core.racerule.lane_overlap` says so,
    witnessed by those two lanes. Emulated groups are deterministic per
    warp, so these races are robust.
    """
    first: Dict[int, Endpoint] = {}  # instruction -> its first lane here
    for _lo, _hi, n, ep in covering:
        race = lane_overlap(ep.is_write, ep.atomic, array == A_SHARED)
        prev = first.setdefault(n, ep)
        if race is not None and prev is not ep:
            return SegmentFinding(
                array=array, lo=lo, hi=hi, status=RACY,
                kinds=(race.kind.name,), categories=(race.category.name,),
                witness=(prev, ep))
    return None


_RANK = {RACY: 2, UNKNOWN: 1, SAFE: 0}


def classify_program(streams: Sequence[WarpStream]
                     ) -> Dict[str, List[SegmentFinding]]:
    """All segment findings of a lowered program, per array in byte
    order.

    Shared findings collapse the per-block dimension (every block runs
    the same code on its own copy; a racy byte in any block is racy for
    the array region).
    """
    ctx = AnalysisContext(streams)
    findings: Dict[str, List[SegmentFinding]] = {}
    for array, segments in sorted(collect_endpoints(streams).items()):
        found = findings[array] = []
        for lo, hi, covering in segments:
            # the lowest block with the highest-ranked verdict
            f = max((classify_segment(array, lo, hi, cell, ctx)
                     for _blk, cell in sorted(
                         segment_accesses(array, covering).items())),
                    key=lambda g: _RANK[g.status])
            waw = intra_warp_findings(array, lo, hi, covering)
            if waw is not None:
                if _RANK[f.status] < 2:
                    f = waw
                elif f.witness is not None:
                    f = replace(
                        f, kinds=tuple(sorted(set(f.kinds) | set(waw.kinds))),
                        categories=tuple(sorted(set(f.categories)
                                                | set(waw.categories))))
            found.append(f)
    return findings
