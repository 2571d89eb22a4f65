"""Region-level verdicts and the deterministic analysis report.

Segment findings from :mod:`repro.analyze.passes` are aggregated into
per-array **regions**: maximal unions of overlapping statement
footprints. Each region gets one verdict (``racy`` dominates
``unknown`` dominates ``race-free``), the union of proof sketches /
reasons of its segments, symbolic proof sketches from
:mod:`repro.analyze.indexset` where the access maps allow them, and —
for racy regions — one concrete witness pair the ground-truth oracle
can confirm (chosen deterministically: the lowest racing byte, then the
lexicographically smallest ``(stmt, tid)`` pair on that byte).

``report_json`` serializes a report with sorted keys and compact
separators, so the same program always yields byte-identical JSON.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analyze.indexset import map_of_stmt, privacy_proof
from repro.analyze.lower import (
    A_SHARED,
    WarpStream,
    device_layout,
    lower_program,
)
from repro.analyze.passes import (
    RACY,
    SAFE,
    UNKNOWN,
    Endpoint,
    SegmentFinding,
    classify_program,
)
from repro.fuzz.program import FuzzProgram

REPORT_SCHEMA = 1

_RANK = {SAFE: 0, UNKNOWN: 1, RACY: 2}


def _footprints(streams: List[WarpStream]
                ) -> Dict[str, Dict[int, Tuple[int, int]]]:
    """Per-array, per-statement half-open byte intervals actually touched."""
    foot: Dict[str, Dict[int, Tuple[int, int]]] = {}
    for s in streams:
        for ins in s.instrs:
            for la in ins.lanes:
                per = foot.setdefault(la.array, {})
                lo, hi = per.get(la.stmt, (la.addr, la.addr + la.size))
                per[la.stmt] = (min(lo, la.addr),
                                max(hi, la.addr + la.size))
    return foot


def _merge_regions(per_stmt: Dict[int, Tuple[int, int]]
                   ) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """Merge overlapping statement footprints into ``(lo, hi, stmts)``."""
    items = sorted((lo, hi, stmt) for stmt, (lo, hi) in per_stmt.items())
    regions: List[Tuple[int, int, List[int]]] = []
    for lo, hi, stmt in items:
        if regions and lo < regions[-1][1]:
            last = regions[-1]
            regions[-1] = (last[0], max(last[1], hi), last[2] + [stmt])
        else:
            regions.append((lo, hi, [stmt]))
    return [(lo, hi, tuple(sorted(set(stmts))))
            for lo, hi, stmts in regions]


def _endpoint_dict(ep: Endpoint) -> Dict[str, object]:
    return {
        "tid": ep.tid,
        "block": ep.block,
        "stmt": ep.stmt,
        "tag": ep.tag,
        "write": ep.is_write,
        "atomic": ep.atomic,
    }


def _witness_dict(array: str, finding: SegmentFinding,
                  layout: Dict[str, int]) -> Dict[str, object]:
    """The witness on the finding's first byte."""
    first, second = finding.witness  # type: ignore[misc]
    shared = array == A_SHARED
    byte = finding.lo if shared else layout[array] + finding.lo
    return {
        "space": "SHARED" if shared else "GLOBAL",
        "byte": byte,
        "array_byte": finding.lo,
        "kinds": list(finding.kinds),
        "categories": list(finding.categories),
        "first": _endpoint_dict(first),
        "second": _endpoint_dict(second),
    }


def _region_record(program: FuzzProgram, array: str,
                   lo: int, hi: int,
                   stmts: Tuple[int, ...],
                   findings: Sequence[SegmentFinding],
                   layout: Dict[str, int]) -> Dict[str, object]:
    """One region's verdict from the findings of its segments, which
    come in byte order."""
    status = SAFE
    kinds: set = set()
    categories: set = set()
    proofs: set = set()
    reasons: set = set()
    witness_finding: Optional[SegmentFinding] = None
    for f in findings:
        if _RANK[f.status] > _RANK[status]:
            status = f.status
        kinds.update(f.kinds)
        categories.update(f.categories)
        proofs.update(f.proofs)
        reasons.update(f.reasons)
        if f.status == RACY and f.witness is not None \
                and witness_finding is None:
            witness_finding = f  # lowest racy segment wins
    if status == SAFE:
        for stmt in stmts:
            st = program.stmts[stmt]
            m = map_of_stmt(st, program.blocks, program.threads)
            if m is not None:
                p = privacy_proof(m)
                if p is not None:
                    proofs.add(f"stmt {stmt}: {p}")
    shared = array == A_SHARED
    record: Dict[str, object] = {
        "array": array,
        "space": "SHARED" if shared else "GLOBAL",
        "lo": lo,
        "hi": hi,
        "device_lo": lo if shared else layout[array] + lo,
        "device_hi": hi if shared else layout[array] + hi,
        "stmts": list(stmts),
        "status": status,
        "kinds": sorted(kinds),
        "categories": sorted(categories),
        "proofs": sorted(proofs),
        "reasons": sorted(reasons),
    }
    if witness_finding is not None:
        record["witness"] = _witness_dict(array, witness_finding, layout)
    return record


def build_report(program: FuzzProgram,
                 streams: Optional[List[WarpStream]] = None
                 ) -> Dict[str, object]:
    """Full analysis report of one program (plain JSON-safe dict)."""
    if streams is None:
        streams = lower_program(program)
    layout = device_layout(program)
    findings = classify_program(streams)
    regions: List[Dict[str, object]] = []
    foot = _footprints(streams)
    for array in sorted(foot):
        segments = findings.get(array, [])
        starts = [f.lo for f in segments]
        for lo, hi, stmts in _merge_regions(foot[array]):
            # every segment lies inside one statement footprint, so
            # inside one region
            inside = segments[bisect_left(starts, lo):
                              bisect_left(starts, hi)]
            regions.append(_region_record(
                program, array, lo, hi, stmts, inside, layout))
    counts = {RACY: 0, UNKNOWN: 0, SAFE: 0}
    for r in regions:
        counts[str(r["status"])] += 1
    return {
        "schema": REPORT_SCHEMA,
        "program": program.digest(),
        "note": program.note,
        "blocks": program.blocks,
        "threads": program.threads,
        "layout": {k: v for k, v in sorted(layout.items())},
        "verdicts": {
            "racy": counts[RACY],
            "unknown": counts[UNKNOWN],
            "race_free": counts[SAFE],
        },
        "regions": regions,
    }


def analyze_program(program: FuzzProgram) -> Dict[str, object]:
    """Lower, classify, and report — the analyzer's main entry point."""
    return build_report(program)


def report_json(report: Dict[str, object]) -> str:
    """Canonical serialization: same program, byte-identical JSON."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
