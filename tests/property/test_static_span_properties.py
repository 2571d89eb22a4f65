"""Property suite: the span-segment static classifier is exact (hypothesis).

:func:`repro.analyze.passes.classify_program` cuts every array's lane
spans into elementary segments and classifies each segment once. The
per-byte classifier below is the plain form it must equal: one cell per
``(array, block, byte)``, every byte classified, intra-warp overlaps
found byte by byte, and regions aggregated byte by byte. Both judge
pairs through the one race rule (:func:`repro.core.racerule.classify`
under :func:`repro.analyze.passes.facts`, and
:func:`repro.core.racerule.lane_overlap`). On random warp streams and on
generated programs, the per-byte expansion of the segment findings and
the final ``report_json`` must be identical.
"""

from typing import Dict, List, Optional, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.analyze import passes
from repro.analyze.indexset import map_of_stmt, privacy_proof
from repro.analyze.lower import (
    A_BYTES,
    A_GLOBAL,
    A_SHARED,
    LaneAccess,
    WarpInstr,
    WarpStream,
    device_layout,
    lower_program,
)
from repro.analyze.passes import (
    RACY,
    SAFE,
    UNKNOWN,
    Endpoint,
    _lockset_coupling,
    facts,
)
from repro.analyze.scopes import SCOPE_BLOCK, SCOPE_DEVICE, SCOPE_SYSTEM
from repro.analyze.verdict import (
    REPORT_SCHEMA,
    _footprints,
    _merge_regions,
    _witness_dict,
    build_report,
    report_json,
)
from repro.core.racerule import classify, lane_overlap
from repro.fuzz.generator import generate_program

_RANK = {SAFE: 0, UNKNOWN: 1, RACY: 2}


# ---------------------------------------------------------------------------
# the per-byte classifier
# ---------------------------------------------------------------------------

class _ByteFinding:
    """One (array, byte) verdict; ``lo`` names the byte so the region
    code below reads it like a one-byte segment."""

    def __init__(self, array, byte, status, kinds=(), categories=(),
                 proofs=(), reasons=(), witness=None):
        self.array, self.lo, self.status = array, byte, status
        self.kinds, self.categories = kinds, categories
        self.proofs, self.reasons, self.witness = proofs, reasons, witness

    def row(self):
        return (self.status, self.kinds, self.categories, self.proofs,
                self.reasons, self.witness)


class _ByteContext:
    """The pair rules' facts with a per-byte atomic set."""

    def __init__(self, streams):
        self._streams = {s.warp: s for s in streams}
        self.warp_atomic_bytes: Set[Tuple[int, str, int]] = set()
        for s in streams:
            for ins in s.instrs:
                if ins.kind != "atomic":
                    continue
                for la in ins.lanes:
                    for b in range(la.addr, la.addr + la.size):
                        self.warp_atomic_bytes.add((s.warp, la.array, b))

    def may_fence_after(self, ep):
        return self._streams[ep.wid].may_fence_after(ep.pos)


def _byte_cells(streams):
    cells: Dict[Tuple[str, int, int], passes._Accesses] = {}
    w_keys: Dict[tuple, Dict[tuple, int]] = {}
    r_keys: Dict[tuple, Dict[tuple, int]] = {}
    for s in streams:
        for ins in s.instrs:
            for la in ins.lanes:
                ep = Endpoint(
                    tid=la.tid, wid=s.warp, bid=s.block,
                    epoch=ins.epoch, locks=la.locks,
                    atomic=ins.kind == "atomic",
                    is_write=ins.kind != "read", pos=ins.pos,
                    stmt=la.stmt, tag=la.tag, fenced=la.fenced)
                blk = s.block if la.array == A_SHARED else -1
                for b in range(la.addr, la.addr + la.size):
                    key = (la.array, blk, b)
                    cell = cells.setdefault(key, passes._Accesses())
                    if ep.is_write:
                        dedup = (ep.wid, ep.epoch, ep.locks, ep.atomic)
                        slots, lst = w_keys, cell.writers
                    else:
                        dedup = (ep.wid, ep.epoch, ep.locks)
                        slots, lst = r_keys, cell.readers
                    seen = slots.setdefault(key, {})
                    if dedup in seen:
                        lst[seen[dedup]] = ep
                    else:
                        seen[dedup] = len(lst)
                        lst.append(ep)
    return cells


def _classify_byte(array, byte, cell, ctx):
    kinds: Set[str] = set()
    categories: Set[str] = set()
    proofs: Set[str] = set()
    reasons: Set[str] = set()
    state = {"status": SAFE, "witness": None}

    def key(ep):
        return (ep.stmt, ep.tid, ep.pos)

    def merge(st_, info, cats, pair):
        if st_ == RACY:
            kinds.update(info)
            categories.update(cats)
            cand = tuple(sorted(pair, key=key))
            witness = state["witness"]
            if state["status"] != RACY or witness is None \
                    or tuple(map(key, cand)) < tuple(map(key, witness)):
                state["witness"] = cand
            state["status"] = RACY
        elif st_ == UNKNOWN:
            reasons.update(info)
            if state["status"] == SAFE:
                state["status"] = UNKNOWN
        else:
            proofs.update(info)

    pairs = [(w, o) for i, w in enumerate(cell.writers)
             for o in cell.writers[i + 1:]]
    pairs += [(w, r) for w in cell.writers for r in cell.readers]
    for a, b in pairs:
        merge(*classify(a, b, array == A_SHARED, facts(array, byte, ctx)),
              (a, b))
    coupled = _lockset_coupling(cell, ctx)
    if coupled is not None:
        merge(RACY, ("RAW",), ("GLOBAL_FENCE",), coupled)
    if not pairs and coupled is None:
        proofs.add("read-only bytes cannot race" if not cell.writers
                   else "thread-private indexing")
    return _ByteFinding(array, byte, state["status"], tuple(sorted(kinds)),
                        tuple(sorted(categories)), tuple(sorted(proofs)),
                        tuple(sorted(reasons)), state["witness"])


def _lane_endpoint(s, ins, la):
    return Endpoint(tid=la.tid, wid=s.warp, bid=s.block,
                    epoch=ins.epoch, locks=la.locks,
                    atomic=ins.kind == "atomic", is_write=True, pos=ins.pos,
                    stmt=la.stmt, tag=la.tag, fenced=la.fenced)


def _intra_warp(streams):
    found: Dict[Tuple[str, int], _ByteFinding] = {}
    for s in streams:
        for ins in s.instrs:
            race = lane_overlap(ins.kind != "read", ins.kind == "atomic",
                                ins.space == "S")
            if race is None:
                continue
            first: Dict[Tuple[str, int], LaneAccess] = {}
            for la in ins.lanes:
                for b in range(la.addr, la.addr + la.size):
                    key = (la.array, b)
                    prev = first.setdefault(key, la)
                    if prev is la or key in found:
                        continue
                    found[key] = _ByteFinding(
                        la.array, b, RACY, (race.kind.name,),
                        (race.category.name,),
                        witness=(_lane_endpoint(s, ins, prev),
                                 _lane_endpoint(s, ins, la)))
    return [found[k] for k in sorted(found)]


def byte_findings(streams) -> Dict[Tuple[str, int], _ByteFinding]:
    """The per-byte classifier: ``(array, byte) -> finding``."""
    ctx = _ByteContext(streams)
    findings: Dict[Tuple[str, int], _ByteFinding] = {}
    for (array, _blk, byte), cell in sorted(_byte_cells(streams).items()):
        f = _classify_byte(array, byte, cell, ctx)
        old = findings.get((array, byte))
        if old is None or _RANK[f.status] > _RANK[old.status]:
            findings[(array, byte)] = f
    for f in _intra_warp(streams):
        old = findings.get((f.array, f.lo))
        if old is None or _RANK[old.status] < 2:
            findings[(f.array, f.lo)] = f
        elif old.status == RACY and old.witness is not None:
            findings[(f.array, f.lo)] = _ByteFinding(
                f.array, f.lo, RACY,
                tuple(sorted(set(old.kinds) | set(f.kinds))),
                tuple(sorted(set(old.categories) | set(f.categories))),
                old.proofs, old.reasons, old.witness)
    return findings


def byte_report(program, streams):
    """``build_report`` with every region aggregated byte by byte."""
    layout = device_layout(program)
    findings = byte_findings(streams)
    regions: List[Dict[str, object]] = []
    foot = _footprints(streams)
    for array in sorted(foot):
        for lo, hi, stmts in _merge_regions(foot[array]):
            status = SAFE
            kinds: set = set()
            categories: set = set()
            proofs: set = set()
            reasons: set = set()
            witness: Optional[_ByteFinding] = None
            for byte in range(lo, hi):
                f = findings.get((array, byte))
                if f is None:
                    continue
                if _RANK[f.status] > _RANK[status]:
                    status = f.status
                kinds.update(f.kinds)
                categories.update(f.categories)
                proofs.update(f.proofs)
                reasons.update(f.reasons)
                if f.status == RACY and f.witness is not None \
                        and witness is None:
                    witness = f
            if status == SAFE:
                for stmt in stmts:
                    m = map_of_stmt(program.stmts[stmt], program.blocks,
                                    program.threads)
                    if m is not None:
                        p = privacy_proof(m)
                        if p is not None:
                            proofs.add(f"stmt {stmt}: {p}")
            shared = array == A_SHARED
            record: Dict[str, object] = {
                "array": array,
                "space": "SHARED" if shared else "GLOBAL",
                "lo": lo, "hi": hi,
                "device_lo": lo if shared else layout[array] + lo,
                "device_hi": hi if shared else layout[array] + hi,
                "stmts": list(stmts), "status": status,
                "kinds": sorted(kinds), "categories": sorted(categories),
                "proofs": sorted(proofs), "reasons": sorted(reasons),
            }
            if witness is not None:
                record["witness"] = _witness_dict(array, witness, layout)
            regions.append(record)
    counts = {RACY: 0, UNKNOWN: 0, SAFE: 0}
    for r in regions:
        counts[str(r["status"])] += 1
    return {
        "schema": REPORT_SCHEMA, "program": program.digest(),
        "note": program.note, "blocks": program.blocks,
        "threads": program.threads,
        "layout": {k: v for k, v in sorted(layout.items())},
        "verdicts": {"racy": counts[RACY], "unknown": counts[UNKNOWN],
                     "race_free": counts[SAFE]},
        "regions": regions,
    }


def expand(findings) -> Dict[Tuple[str, int], tuple]:
    """Segment findings as one row per byte."""
    return {(f.array, byte): (f.status, f.kinds, f.categories, f.proofs,
                              f.reasons, f.witness)
            for segments in findings.values() for f in segments
            for byte in range(f.lo, f.hi)}


# ---------------------------------------------------------------------------
# random warp streams
# ---------------------------------------------------------------------------

#: a generated program supplies the statements, layout and digest that
#: ``build_report`` reads; the streams below reference its statements
_PROGRAM = generate_program(0)
_WARPS, _WARPS_PER_BLOCK = 4, 2


@st.composite
def _lane(draw, tid, shared):
    array = A_SHARED if shared else draw(st.sampled_from((A_GLOBAL,
                                                          A_BYTES)))
    size = draw(st.sampled_from((1, 2, 4, 8)))
    addr = draw(st.one_of(st.integers(0, 24 - size),
                          st.integers(0, 5).map(lambda i: 4 * i)))
    return LaneAccess(
        tid=tid, lane=tid % 32, array=array, addr=addr, size=size,
        locks=frozenset(draw(st.sets(st.integers(0, 1), max_size=2))),
        stmt=draw(st.integers(0, len(_PROGRAM.stmts) - 1)),
        tag=draw(st.sampled_from(("g:write", "s:read", "b:atomic"))),
        fenced=draw(st.booleans()))


@st.composite
def _stream(draw, warp):
    stream = WarpStream(warp=warp, block=warp // _WARPS_PER_BLOCK)
    pos = epoch = 0
    for _ in range(draw(st.integers(0, 5))):
        pos += draw(st.integers(1, 2))
        if draw(st.integers(0, 3)) == 0:
            stream.fence_positions.append((pos, draw(st.sampled_from(
                (SCOPE_BLOCK, SCOPE_DEVICE, SCOPE_SYSTEM)))))
            pos += 1
        epoch += draw(st.integers(0, 1))
        shared = draw(st.booleans())
        base = warp * 32
        lanes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4,
                              unique=True))
        stream.instrs.append(WarpInstr(
            pos=pos, epoch=epoch,
            kind=draw(st.sampled_from(("read", "write", "atomic"))),
            space="S" if shared else "G",
            lanes=tuple(draw(_lane(base + lane, shared))
                        for lane in lanes)))
    return stream


@st.composite
def _streams(draw):
    return [draw(_stream(warp)) for warp in range(_WARPS)]


class TestSpanClassifierExactness:
    @settings(max_examples=300, deadline=None)
    @given(_streams())
    def test_random_streams_match_per_byte(self, streams):
        got = expand(passes.classify_program(streams))
        want = {key: f.row() for key, f in byte_findings(streams).items()}
        assert got == want
        assert report_json(build_report(_PROGRAM, streams)) == \
            report_json(byte_report(_PROGRAM, streams))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_generated_programs_match_per_byte(self, seed):
        program = generate_program(seed)
        streams = lower_program(program)
        got = expand(passes.classify_program(streams))
        want = {key: f.row() for key, f in byte_findings(streams).items()}
        assert got == want
        assert report_json(build_report(program, streams)) == \
            report_json(byte_report(program, streams))

    def test_partial_overlap_splits_into_three_segments(self):
        """An 8-byte write by warp 0 and a 2-byte read inside it by
        warp 2 (another block): bytes 4-5 race, the rest of the write is
        thread-private, and the report's witness names byte 4."""
        def instr(pos, kind, lane):
            return WarpInstr(pos=pos, epoch=0, kind=kind, space="G",
                             lanes=(lane,))
        w = LaneAccess(tid=0, lane=0, array=A_BYTES, addr=0, size=8,
                       stmt=0, tag="b:write")
        r = LaneAccess(tid=64, lane=0, array=A_BYTES, addr=4, size=2,
                       stmt=0, tag="b:read")
        streams = [WarpStream(0, 0, [instr(0, "write", w)]),
                   WarpStream(2, 1, [instr(0, "read", r)])]
        findings = passes.classify_program(streams)
        assert [(f.lo, f.hi, f.status) for f in findings[A_BYTES]] == [
            (0, 4, SAFE), (4, 6, RACY), (6, 8, SAFE)]
        assert expand(findings) == {
            key: f.row() for key, f in byte_findings(streams).items()}
        region, = build_report(_PROGRAM, streams)["regions"]
        assert region["witness"]["array_byte"] == 4
