"""Scope-aware multi-device static race analysis (the XGPU race class).

PR 9's dynamic stack judges cross-GPU races twice — the byte-exact
:class:`~repro.core.groundtruth.MultiDeviceOracle` and the granule-level
directory detector — but both need a full multi-device simulation. This
module is the simulation-free third leg: a declarative multi-device IR
(:class:`MGProgram`), a placement pass mirroring
:class:`~repro.multigpu.memory.SharedPagePool` semantics, and a
cross-device pairwise classifier that emits ``racy`` (with a concrete
witness the oracle can confirm), ``race-free`` (with a proof sketch), or
``unknown`` (the analyzer declining to claim) per array region.

The soundness architecture mirrors the single-device analyzer
(:mod:`repro.analyze.passes`) one level up:

- **exact enumeration over bounded populations.** Thread populations and
  index ranges are small, so element footprints are enumerated, never
  approximated; symbolic reasoning only *explains* verdicts.
- **the pair rule exists once.** Static endpoint pairs are judged by
  calling :func:`repro.core.racerule.cross_device_order` itself on
  reconstructed :class:`~repro.core.racerule.DeviceEndpoint` rows —
  system atomics exempt, W/W always races in-phase, W/R suppressed only
  by a **system-scope** fence after the write (device-scope fences
  publish nothing to peers; see :mod:`repro.analyze.scopes`). The static
  layer's only claim of its own is the *endpoint reconstruction*: which
  bytes each warp touches, and whether its writes are provably published
  (``None`` when a ``maybe`` fence decides it, which the rule reports as
  a dependence). Proofs and reasons are the rule's named outcomes.
- **placement is a verdict dimension.** Only ``shared=True`` arrays are
  peer-visible (mapped in every device's page table and registered in
  the home-node directory); a device-local array is race-free for the
  cross-device class by placement alone, exactly like directory pruning
  of single-sharer pages.
- **unknown is honest.** Statements and fences marked ``maybe`` (the IR's
  conditional-execution escape hatch) poison dependent verdicts to
  ``unknown`` instead of guessing.

Reports serialize canonically (sorted keys, compact separators) through
:func:`repro.analyze.verdict.report_json`, so the same program always
yields byte-identical JSON; :func:`mg_cross_check` grades a report
against the oracle's :class:`~repro.core.groundtruth.CrossDeviceRace`
list with the same contract as the single-device validator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analyze.scopes import (
    SCOPE_SYSTEM,
    fence_scope,
    publishes,
    scope_name,
)
from repro.common.bitops import align_up
from repro.common.types import AccessKind
from repro.core.racerule import (RACY, SAFE, UNKNOWN, DeviceEndpoint, Ordered,
                                 Race, cross_device_order)

#: bump when the IR, the pair rule, or the report shape changes
MG_REPORT_SCHEMA = 1

_WARP = 32
_ALIGN = 256          #: DeviceMemory.ALLOC_ALIGN, mirrored
_PAGE = 4096          #: SharedPagePool default page size, mirrored

_READ = int(AccessKind.READ)
_WRITE = int(AccessKind.WRITE)
_ATOMIC = int(AccessKind.ATOMIC)

_KINDS = {"read": _READ, "write": _WRITE, "atomic": _ATOMIC}

_RANK = {SAFE: 0, UNKNOWN: 1, RACY: 2}


# ---------------------------------------------------------------------------
# the multi-device IR
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MGArray:
    """One allocation, in program order (the order *is* the layout)."""

    name: str
    length: int               #: elements
    itemsize: int = 4
    home: int = 0
    shared: bool = False      #: peer-mapped/unified vs device-local

    def record(self) -> Dict[str, Any]:
        return {"name": self.name, "length": self.length,
                "itemsize": self.itemsize, "home": self.home,
                "shared": self.shared}

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "MGArray":
        return MGArray(name=str(record["name"]),
                       length=int(record["length"]),
                       itemsize=int(record.get("itemsize", 4)),
                       home=int(record.get("home", 0)),
                       shared=bool(record.get("shared", False)))


@dataclass(frozen=True)
class MGKernel:
    """One kernel launch of one device within a phase.

    Statement vocabulary (plain dicts, JSON-able):

    - ``{"op": "read"|"write"|"atomic", "array": name, "start": s,
      "stop": e}`` — each thread ``gtid`` touches elements
      ``range(s + gtid, e, nthreads)`` (the canonical strided loop);
      optional ``"mod": m`` folds every element through ``% m``
      (histogram-style wrapping), ``"only_tid": t`` restricts the
      statement to one thread, ``"each": true`` makes each
      participating thread walk the whole ``[s, e)`` range serially,
      and ``"maybe": true`` marks conditional execution the analyzer
      must not assume either way;
    - ``{"op": "fence", "scope": 0|1}`` — wire encoding 0 = device
      scope, 1 = system scope (``maybe`` supported here too: a
      conditional publication poisons dependent verdicts to unknown).
    """

    device: int
    stmts: Tuple[Dict[str, Any], ...]
    grid: int = 1
    block: int = _WARP

    @property
    def nthreads(self) -> int:
        return self.grid * self.block

    def record(self) -> Dict[str, Any]:
        return {"device": self.device, "grid": self.grid,
                "block": self.block, "stmts": [dict(s) for s in self.stmts]}

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "MGKernel":
        return MGKernel(device=int(record["device"]),
                        grid=int(record.get("grid", 1)),
                        block=int(record.get("block", _WARP)),
                        stmts=tuple(dict(s) for s in record["stmts"]))


@dataclass(frozen=True)
class MGProgram:
    """A declarative multi-device program: allocations + phased launches."""

    gpus: int
    arrays: Tuple[MGArray, ...]
    phases: Tuple[Tuple[MGKernel, ...], ...]
    note: str = ""
    #: expected oracle categories of the injected defect ("" = none)
    expected: Tuple[str, ...] = ()

    def record(self) -> Dict[str, Any]:
        return {
            "schema": MG_REPORT_SCHEMA,
            "gpus": self.gpus,
            "arrays": [a.record() for a in self.arrays],
            "phases": [[k.record() for k in phase]
                       for phase in self.phases],
            "note": self.note,
            "expected": list(self.expected),
        }

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "MGProgram":
        return MGProgram(
            gpus=int(record["gpus"]),
            arrays=tuple(MGArray.from_record(a)
                         for a in record["arrays"]),
            phases=tuple(tuple(MGKernel.from_record(k) for k in phase)
                         for phase in record["phases"]),
            note=str(record.get("note", "")),
            expected=tuple(record.get("expected", ())),
        )

    def digest(self) -> str:
        payload = json.dumps(self.record(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def array(self, name: str) -> MGArray:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(f"program has no array {name!r}")


def mg_fuzz_model(program: Dict[str, Any]) -> MGProgram:
    """The :class:`MGProgram` of one mg-fuzz JSON record.

    The generator's vocabulary maps 1:1: every statement targets the
    single unified array (``shared=True``, home 0), launched as one
    32-thread block per device per phase
    (:func:`repro.multigpu.fuzz.generate_mg_program`).
    """
    params = program["params"]
    n = int(params["n"])
    gpus = int(params["gpus"])
    phases: List[Tuple[MGKernel, ...]] = []
    for phase in program["phases"]:
        kernels: List[MGKernel] = []
        for entry in phase:
            stmts: List[Dict[str, Any]] = []
            for st in entry["stmts"]:
                if st[0] == "fence":
                    stmts.append({"op": "fence", "scope": int(st[1])})
                else:
                    stmts.append({"op": str(st[0]),
                                  "array": "mg_fuzz_buf",
                                  "start": int(st[1]),
                                  "stop": int(st[2])})
            kernels.append(MGKernel(device=int(entry["device"]),
                                    stmts=tuple(stmts)))
        phases.append(tuple(kernels))
    return MGProgram(
        gpus=gpus,
        arrays=(MGArray("mg_fuzz_buf", n, home=0, shared=True),),
        phases=tuple(phases),
        note=f"mgfuzz:{program.get('seed', '?')}")


# ---------------------------------------------------------------------------
# placement pass (SharedPagePool mirror)
# ---------------------------------------------------------------------------


def mg_device_layout(program: MGProgram) -> Dict[str, int]:
    """Base device byte of every array: the bump allocator replayed.

    Multi-GPU systems share one :class:`~repro.gpu.device.DeviceMemory`
    pool, so addresses are globally unique and allocation order fully
    determines them (align 256, like the single-device layout mirror).
    """
    layout: Dict[str, int] = {}
    cursor = 0
    for a in program.arrays:
        layout[a.name] = cursor
        cursor = align_up(cursor + a.length * a.itemsize, _ALIGN)
    return layout


def placement_summary(program: MGProgram,
                      layout: Optional[Dict[str, int]] = None
                      ) -> Dict[str, Any]:
    """Per-device placement view, mirroring ``SharedPagePool`` mapping.

    A ``shared=True`` array lands in **every** device's page table and
    its pages register in the home-node directory; a device-local array
    maps on its home only (remote access would page-fault). The summary
    is what ``repro analyze --gpus N --json`` exposes per device.
    """
    if layout is None:
        layout = mg_device_layout(program)
    devices: List[Dict[str, Any]] = []
    shared_vpns: Set[int] = set()
    for a in program.arrays:
        if a.shared:
            base = layout[a.name]
            nbytes = max(1, a.length * a.itemsize)
            shared_vpns.update(range(base // _PAGE,
                                     (base + nbytes - 1) // _PAGE + 1))
    for d in range(program.gpus):
        local = [a for a in program.arrays if not a.shared and a.home == d]
        home_shared = [a for a in program.arrays
                       if a.shared and a.home == d]
        shared = [a for a in program.arrays if a.shared]
        devices.append({
            "device": d,
            "local_arrays": sorted(a.name for a in local),
            "home_shared_arrays": sorted(a.name for a in home_shared),
            "visible_shared_arrays": sorted(a.name for a in shared),
            "local_bytes": sum(a.length * a.itemsize for a in local),
            "shared_bytes": sum(a.length * a.itemsize for a in shared),
        })
    return {
        "page_size": _PAGE,
        "shared_pages": len(shared_vpns),
        "devices": devices,
    }


# ---------------------------------------------------------------------------
# endpoint reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MGSite:
    """One static cross-device access endpoint (pre-verdict)."""

    device: int
    phase: int
    wid: int                  #: device-local warp id
    tid: int                  #: device-local grid thread id
    bid: int
    kind: int                 #: AccessKind int
    sys_fenced_after: bool    #: provably published at system scope
    conditional: bool         #: endpoint may not execute (``maybe``)
    publish_unknown: bool     #: publication depends on a ``maybe`` fence
    stmt: int                 #: flat statement index (witness text)


def _stmt_elements(st: Dict[str, Any], gtid: int,
                   nthreads: int) -> Iterable[int]:
    """Exact element set one thread touches under one statement."""
    if st.get("only_tid") is not None and gtid != int(st["only_tid"]):
        return ()
    start, stop = int(st["start"]), int(st["stop"])
    if st.get("each"):
        elems: Iterable[int] = range(start, stop)
    else:
        elems = range(start + gtid, stop, nthreads)
    mod = st.get("mod")
    if mod:
        return sorted({e % int(mod) for e in elems})
    return elems


@dataclass
class _CellSites:
    sites: List[MGSite] = field(default_factory=list)
    #: dedup mirror of the oracle's interchangeable-endpoint rule:
    #: same (device, wid, kind, publication) rows judge identically
    seen: Set[Tuple[int, int, int, bool, bool, bool]] = \
        field(default_factory=set)

    def add(self, site: MGSite) -> None:
        key = (site.device, site.wid, site.kind, site.sys_fenced_after,
               site.conditional, site.publish_unknown)
        if key not in self.seen:
            self.seen.add(key)
            self.sites.append(site)


def collect_sites(program: MGProgram, layout: Dict[str, int]
                  ) -> Dict[Tuple[int, int], _CellSites]:
    """Per ``(phase, absolute device byte)`` endpoint sites.

    Mirrors what the dynamic stack feeds the oracle: only shared-array
    accesses are peer-visible, warps are 32-thread slices of a kernel's
    grid, and a write counts as published iff a system-scope fence
    later in the *same warp's* statement stream within the phase is
    certain to issue (``maybe`` fences yield ``publish_unknown``).
    """
    arrays = {a.name: a for a in program.arrays}
    cells: Dict[Tuple[int, int], _CellSites] = {}
    flat_stmt = 0
    for phase_idx, phase in enumerate(program.phases):
        # concatenate same-device kernels in launch order: run_phase
        # executes them back to back, so one warp's stream spans them
        per_device: Dict[int, List[MGKernel]] = {}
        for kernel in phase:
            per_device.setdefault(kernel.device, []).append(kernel)
        for device in sorted(per_device):
            kernels = per_device[device]
            stmts: List[Tuple[int, MGKernel, Dict[str, Any]]] = []
            for kernel in kernels:
                for st in kernel.stmts:
                    stmts.append((flat_stmt, kernel, st))
                    flat_stmt += 1
            # per-WARP publication horizon: warp ids restart per launch,
            # so warp w's in-phase stream spans every kernel with more
            # than w warps — a fence publishes only for warps its own
            # kernel actually runs (mirrors the oracle's (device, wid)
            # phase-final epochs)
            max_warps = max((k.nthreads + _WARP - 1) // _WARP
                            for k in kernels)
            last_sure = [-1] * max_warps
            last_maybe = [-1] * max_warps
            for pos, (_, kernel, st) in enumerate(stmts):
                if st.get("op") != "fence" or not publishes(
                        fence_scope(st.get("scope")), SCOPE_SYSTEM):
                    continue
                kernel_warps = (kernel.nthreads + _WARP - 1) // _WARP
                horizon = last_maybe if st.get("maybe") else last_sure
                for w in range(kernel_warps):
                    horizon[w] = pos
            for pos, (sid, kernel, st) in enumerate(stmts):
                op = str(st.get("op"))
                if op == "fence":
                    continue
                arr = arrays[str(st["array"])]
                if not arr.shared:
                    continue  # device-local: never peer-visible
                kind = _KINDS[op]
                base = layout[arr.name]
                conditional = bool(st.get("maybe"))
                for gtid in range(kernel.nthreads):
                    elems = _stmt_elements(st, gtid, kernel.nthreads)
                    if not elems:
                        continue
                    wid = gtid // _WARP
                    fenced = kind != _READ and pos < last_sure[wid]
                    publish_unknown = (kind != _READ and not fenced
                                       and pos < last_maybe[wid])
                    site_proto = MGSite(
                        device=device, phase=phase_idx,
                        wid=wid, tid=gtid,
                        bid=gtid // kernel.block, kind=kind,
                        sys_fenced_after=fenced,
                        conditional=conditional,
                        publish_unknown=publish_unknown, stmt=sid)
                    for e in elems:
                        for b in range(base + e * arr.itemsize,
                                       base + (e + 1) * arr.itemsize):
                            cells.setdefault(
                                (phase_idx, b), _CellSites()).add(site_proto)
    return cells


# ---------------------------------------------------------------------------
# the cross-device pairwise classifier
# ---------------------------------------------------------------------------


def classify_site_pair(a: MGSite, b: MGSite
                       ) -> Tuple[str, Optional[Tuple[str, str]], str]:
    """Judge one static endpoint pair for the XGPU race class.

    Returns ``(status, (kind, category) | None, detail)``: the outcome
    of :func:`~repro.core.racerule.cross_device_order` on the
    reconstructed endpoints, with publication by a ``maybe`` fence left
    to the rule as ``None``. The static layer adds one uncertainty of
    its own: a race between accesses that may not execute is
    ``unknown``.
    """
    eps = [DeviceEndpoint(s.device, s.phase, s.wid, s.tid, s.bid, s.kind,
                          None if s.publish_unknown else s.sys_fenced_after)
           for s in (a, b)]
    outcome = cross_device_order(*eps)
    if not isinstance(outcome, Race):
        return (SAFE if isinstance(outcome, Ordered) else UNKNOWN, None,
                str(outcome))
    if a.conditional or b.conditional:
        return UNKNOWN, None, "conflicting access is conditional " \
                              "(may not execute)"
    return RACY, (outcome.kind.name, outcome.category.name), ""


@dataclass
class MGByteFinding:
    """Classification of one absolute device byte (XGPU class)."""

    byte: int
    status: str
    kinds: Tuple[str, ...] = ()
    categories: Tuple[str, ...] = ()
    proofs: Tuple[str, ...] = ()
    reasons: Tuple[str, ...] = ()
    witness: Optional[Tuple[int, MGSite, MGSite]] = None  # (phase, a, b)


def classify_mg_byte(byte: int,
                     by_phase: Dict[int, _CellSites]) -> MGByteFinding:
    """Fold every same-phase cross-device pair of one byte."""
    status = SAFE
    kinds: Set[str] = set()
    categories: Set[str] = set()
    proofs: Set[str] = set()
    reasons: Set[str] = set()
    witness: Optional[Tuple[int, MGSite, MGSite]] = None

    def _wkey(w: Tuple[int, MGSite, MGSite]) -> Tuple[int, ...]:
        phase, a, b = w
        return (phase, a.device, b.device, a.tid, b.tid, a.stmt, b.stmt)

    for phase in sorted(by_phase):
        sites = by_phase[phase].sites
        devices = {s.device for s in sites}
        if len(devices) < 2:
            proofs.add("single-device sharer within the phase")
            continue
        for i, a in enumerate(sites):
            for b in sites[i + 1:]:
                st, info, detail = classify_site_pair(a, b)
                if st == RACY and info is not None:
                    kinds.add(info[0])
                    categories.add(info[1])
                    lo, hi = ((a, b) if a.device <= b.device else (b, a))
                    cand = (phase, lo, hi)
                    if status != RACY or witness is None \
                            or _wkey(cand) < _wkey(witness):
                        witness = cand
                    status = RACY
                elif st == UNKNOWN:
                    reasons.add(detail)
                    if status == SAFE:
                        status = UNKNOWN
                elif detail:
                    proofs.add(detail)
    return MGByteFinding(
        byte=byte, status=status, kinds=tuple(sorted(kinds)),
        categories=tuple(sorted(categories)),
        proofs=tuple(sorted(proofs)), reasons=tuple(sorted(reasons)),
        witness=witness)


def classify_mg_program(program: MGProgram,
                        layout: Optional[Dict[str, int]] = None
                        ) -> Dict[int, MGByteFinding]:
    """All byte findings, keyed by absolute device byte."""
    if layout is None:
        layout = mg_device_layout(program)
    cells = collect_sites(program, layout)
    by_byte: Dict[int, Dict[int, _CellSites]] = {}
    for (phase, byte), cell in cells.items():
        by_byte.setdefault(byte, {})[phase] = cell
    return {byte: classify_mg_byte(byte, phases)
            for byte, phases in sorted(by_byte.items())}


# ---------------------------------------------------------------------------
# region verdicts + the canonical report
# ---------------------------------------------------------------------------


def _array_footprints(program: MGProgram
                      ) -> Dict[str, List[Tuple[int, int]]]:
    """Merged half-open element-byte intervals touched per array."""
    arrays = {a.name: a for a in program.arrays}
    raw: Dict[str, List[Tuple[int, int]]] = {}
    for phase in program.phases:
        for kernel in phase:
            for st in kernel.stmts:
                if st.get("op") == "fence":
                    continue
                arr = arrays[str(st["array"])]
                lo_e: Optional[int] = None
                hi_e: Optional[int] = None
                for gtid in range(kernel.nthreads):
                    for e in _stmt_elements(st, gtid, kernel.nthreads):
                        lo_e = e if lo_e is None else min(lo_e, e)
                        hi_e = e + 1 if hi_e is None else max(hi_e, e + 1)
                if lo_e is None or hi_e is None:
                    continue
                raw.setdefault(arr.name, []).append(
                    (lo_e * arr.itemsize, hi_e * arr.itemsize))
    merged: Dict[str, List[Tuple[int, int]]] = {}
    for name, spans in raw.items():
        out: List[Tuple[int, int]] = []
        for lo, hi in sorted(spans):
            if out and lo <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], hi))
            else:
                out.append((lo, hi))
        merged[name] = out
    return merged


def _witness_record(witness: Tuple[int, MGSite, MGSite],
                    kinds: Sequence[str],
                    categories: Sequence[str],
                    byte: int) -> Dict[str, Any]:
    phase, a, b = witness
    return {
        "byte": byte,
        "phase": phase,
        "kinds": list(kinds),
        "categories": list(categories),
        "first_device": a.device,
        "second_device": b.device,
        "first_tid": a.tid,
        "second_tid": b.tid,
        "first_stmt": a.stmt,
        "second_stmt": b.stmt,
    }


def build_mg_report(program: MGProgram) -> Dict[str, Any]:
    """Full multi-device analysis report (plain JSON-safe dict)."""
    layout = mg_device_layout(program)
    findings = classify_mg_program(program, layout)
    regions: List[Dict[str, Any]] = []
    foot = _array_footprints(program)
    for a in program.arrays:
        base = layout[a.name]
        for lo, hi in foot.get(a.name, ()):
            status = SAFE
            kinds: Set[str] = set()
            categories: Set[str] = set()
            proofs: Set[str] = set()
            reasons: Set[str] = set()
            witness: Optional[Dict[str, Any]] = None
            if not a.shared:
                proofs.add("device-local placement: the page maps on "
                           "one device only (remote access faults)")
            for byte in range(base + lo, base + hi):
                f = findings.get(byte)
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
                    witness = _witness_record(f.witness, sorted(f.kinds),
                                              sorted(f.categories), byte)
            record: Dict[str, Any] = {
                "array": a.name,
                "home": a.home,
                "shared": a.shared,
                "space": "GLOBAL",
                "lo": lo,
                "hi": hi,
                "device_lo": base + lo,
                "device_hi": base + hi,
                "status": status,
                "kinds": sorted(kinds),
                "categories": sorted(categories),
                "proofs": sorted(proofs),
                "reasons": sorted(reasons),
            }
            if witness is not None:
                record["witness"] = witness
            regions.append(record)
    counts = {RACY: 0, UNKNOWN: 0, SAFE: 0}
    for r in regions:
        counts[str(r["status"])] += 1
    return {
        "schema": MG_REPORT_SCHEMA,
        "kind": "multidevice",
        "program": program.digest(),
        "note": program.note,
        "gpus": program.gpus,
        "layout": {k: v for k, v in sorted(layout.items())},
        "placement": placement_summary(program, layout),
        "verdicts": {
            "racy": counts[RACY],
            "unknown": counts[UNKNOWN],
            "race_free": counts[SAFE],
        },
        "regions": regions,
    }


def analyze_mg_program(program: MGProgram) -> Dict[str, Any]:
    """Lower, classify, and report — the multi-device entry point."""
    return build_mg_report(program)


# ---------------------------------------------------------------------------
# differential validation against the MultiDeviceOracle
# ---------------------------------------------------------------------------


def _oracle_keys(races: Iterable[Any]) -> Set[Tuple[int, int, str, str]]:
    return {(int(r.phase), int(r.byte), r.kind.name, r.category.name)
            for r in races}


def mg_cross_check(report: Dict[str, Any],
                   races: Iterable[Any]) -> Dict[str, Any]:
    """Grade one multi-device report against the oracle's cross races.

    Same contract as the single-device validator: a ``racy`` region
    must carry a witness the oracle confirms at
    ``(phase, byte, kind, category)`` precision, a ``race-free`` region
    must be oracle-clean across its absolute byte range, and
    ``unknown`` never contradicts.
    """
    oracle = _oracle_keys(races)
    oracle_bytes = {(byte, phase) for phase, byte, _, _ in oracle}
    confirmed = clean = unknown = 0
    contradictions: List[Dict[str, Any]] = []
    for region in report["regions"]:
        status = region["status"]
        if status == RACY:
            witness = region.get("witness")
            if witness is None:
                contradictions.append({
                    "type": "missing-witness",
                    "array": region["array"],
                    "lo": region["lo"],
                    "hi": region["hi"],
                })
                continue
            keys = {(int(witness["phase"]), int(witness["byte"]), k, c)
                    for k in witness["kinds"]
                    for c in witness["categories"]}
            if keys & oracle:
                confirmed += 1
            else:
                contradictions.append({
                    "type": "unconfirmed-witness",
                    "array": region["array"],
                    "byte": witness["byte"],
                    "phase": witness["phase"],
                    "kinds": list(witness["kinds"]),
                    "categories": list(witness["categories"]),
                })
        elif status == SAFE:
            hits = sorted(
                byte for (byte, _phase) in oracle_bytes
                if region["device_lo"] <= byte < region["device_hi"])
            if hits:
                contradictions.append({
                    "type": "oracle-race-in-safe-region",
                    "array": region["array"],
                    "bytes": hits[:8],
                })
            else:
                clean += 1
        else:
            unknown += 1
    return {
        "schema": MG_REPORT_SCHEMA,
        "program": report["program"],
        "note": report.get("note", ""),
        "racy_confirmed": confirmed,
        "race_free_clean": clean,
        "unknown": unknown,
        "contradictions": contradictions,
        "ok": not contradictions,
    }


def mg_validation_table(results: Sequence[Dict[str, Any]]
                        ) -> Dict[str, Any]:
    """Aggregate cross-check results (the EXPERIMENTS.md XGPU table)."""
    total = {"programs": len(results), "racy_confirmed": 0,
             "race_free_clean": 0, "unknown": 0,
             "static_fp": 0, "static_fn": 0, "contradictions": 0}
    for res in results:
        total["racy_confirmed"] += int(res["racy_confirmed"])
        total["race_free_clean"] += int(res["race_free_clean"])
        total["unknown"] += int(res["unknown"])
        for c in res["contradictions"]:
            total["contradictions"] += 1
            if c["type"] in ("unconfirmed-witness", "missing-witness"):
                total["static_fp"] += 1
            else:
                total["static_fn"] += 1
    return total


__all__ = [
    "MG_REPORT_SCHEMA",
    "MGArray",
    "MGByteFinding",
    "MGKernel",
    "MGProgram",
    "MGSite",
    "analyze_mg_program",
    "build_mg_report",
    "classify_mg_byte",
    "classify_mg_program",
    "classify_site_pair",
    "collect_sites",
    "mg_cross_check",
    "mg_device_layout",
    "mg_fuzz_model",
    "mg_validation_table",
    "placement_summary",
    "scope_name",
]
