"""Multi-GPU differential fuzzing: directory detector vs exact HB oracle.

The generator emits small random multi-device programs over one unified
array: per phase, each device runs a kernel made of strided reads,
writes, system atomics, and fences of either scope — the launch-placement
and fence-scope vocabulary the single-GPU fuzzer cannot express. Every
program is executed through the full :class:`MultiGPUSimulator` stack and
the run *is* the differential check: ``finalize`` diffs the granule-level
directory detector against the byte-exact
:class:`~repro.core.groundtruth.MultiDeviceOracle` at entry level, and
any disagreement is a contradiction.

All operations are whole-word on a 4-byte array and the detector granule
is 4 bytes, so byte-exact and granule-level entry sets coincide — entry
diffs are meaningful, not aliasing noise.

Programs are plain JSON records; the multi-device static analyzer reads
the same record (:func:`mg_static_report`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.common.config import GPUConfig, HAccRGConfig
from repro.gpu.device import DeviceArray
from repro.gpu.kernel import Kernel
from repro.multigpu.system import MGLaunch, MultiGPUSimulator

_BLOCK = 32

#: bump when program shape or judgment changes (digest fence)
#: 2: static fourth stage (scope-aware multi-device analyzer) joins the
#: differential, iteration records carry a ``static`` section, and the
#: campaign summary gains per-cell digests + prefilter accounting
MG_FUZZ_SCHEMA = 2


@dataclass(frozen=True)
class MGFuzzParams:
    """Generator knobs; part of every iteration's identity."""

    gpus: int = 2
    max_phases: int = 2
    max_stmts: int = 3
    n: int = 64                 #: unified array length (words)
    launch_prob: float = 0.85   #: chance a device launches in a phase

    def record(self) -> Dict[str, Any]:
        return {
            "gpus": self.gpus, "max_phases": self.max_phases,
            "max_stmts": self.max_stmts, "n": self.n,
            "launch_prob": self.launch_prob,
        }

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "MGFuzzParams":
        return MGFuzzParams(
            gpus=int(record["gpus"]),
            max_phases=int(record["max_phases"]),
            max_stmts=int(record["max_stmts"]),
            n=int(record["n"]),
            launch_prob=float(record["launch_prob"]),
        )


def generate_mg_program(seed: int,
                        params: MGFuzzParams = MGFuzzParams()
                        ) -> Dict[str, Any]:
    """One random multi-device program as a plain JSON-able record.

    Statement vocabulary per device kernel: ``["write"|"read"|"atomic",
    start, stop]`` (strided over ``[start, stop)``) and
    ``["fence", scope]`` with scope 0 (device) or 1 (system).
    """
    rng = random.Random(seed)
    phases: List[List[Dict[str, Any]]] = []
    num_phases = rng.randint(1, params.max_phases)
    for _ in range(num_phases):
        phase: List[Dict[str, Any]] = []
        for device in range(params.gpus):
            if rng.random() > params.launch_prob:
                continue
            stmts: List[List[Any]] = []
            for _ in range(rng.randint(1, params.max_stmts)):
                op = rng.choice(["write", "read", "atomic", "fence"])
                if op == "fence":
                    stmts.append(["fence", rng.randint(0, 1)])
                else:
                    start = rng.randrange(0, params.n)
                    stop = rng.randrange(start + 1, params.n + 1)
                    stmts.append([op, start, stop])
            if stmts:
                phase.append({"device": device, "stmts": stmts})
        if phase:
            phases.append(phase)
    return {
        "schema": MG_FUZZ_SCHEMA,
        "seed": seed,
        "params": params.record(),
        "phases": phases,
    }


def mg_fuzz_kernel(ctx: Any, buf: DeviceArray, stmts: Any, n: int) -> Any:
    """Interpreter kernel for one device's statement list."""
    gtid = ctx.global_tid_x
    stride = ctx.num_threads
    for st in stmts:
        op = st[0]
        if op == "fence":
            if st[1]:
                yield ctx.threadfence_system()
            else:
                yield ctx.threadfence()
        elif op == "write":
            for i in range(st[1] + gtid, st[2], stride):
                yield ctx.store(buf, i, float(i + 1))
        elif op == "read":
            for i in range(st[1] + gtid, st[2], stride):
                yield ctx.load(buf, i)
        else:  # atomic
            for i in range(st[1] + gtid, st[2], stride):
                yield ctx.atomic_add(buf, i, 1.0)


def _program_phases(program: Dict[str, Any],
                    buf: DeviceArray) -> List[List[MGLaunch]]:
    kernel = Kernel(mg_fuzz_kernel, name="mg_fuzz")
    n = int(program["params"]["n"])
    return [
        [
            MGLaunch(int(entry["device"]), kernel, 1, _BLOCK,
                     (buf, tuple(tuple(st) for st in entry["stmts"]), n))
            for entry in phase
        ]
        for phase in program["phases"]
    ]


def mg_static_report(program: Dict[str, Any]) -> Dict[str, Any]:
    """The scope-aware static report of one mg-fuzz program record."""
    from repro.analyze.multidevice import build_mg_report, mg_fuzz_model

    return build_mg_report(mg_fuzz_model(program))


def _static_sha(report: Dict[str, Any]) -> str:
    from repro.analyze.verdict import report_json

    return hashlib.sha256(
        report_json(report).encode("utf-8")).hexdigest()


def _static_stage(program: Dict[str, Any],
                  cross_races: Any,
                  report: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    """The fourth differential stage: static verdicts vs the oracle.

    The dynamic run already diffed the directory detector against the
    byte-exact oracle; this grades the simulation-free analyzer against
    the same oracle races, with the single-GPU differential's contract —
    racy needs a confirmed witness, race-free needs a clean byte range,
    unknown never contradicts.
    """
    from repro.analyze.multidevice import mg_cross_check

    if report is None:
        report = mg_static_report(program)
    check = mg_cross_check(report, cross_races)
    return {
        "verdicts": dict(report["verdicts"]),
        "racy_confirmed": check["racy_confirmed"],
        "race_free_clean": check["race_free_clean"],
        "unknown": check["unknown"],
        "contradictions": check["contradictions"],
        "report_sha": _static_sha(report),
    }


def run_mg_fuzz_iteration(seed: int,
                          params: MGFuzzParams = MGFuzzParams(),
                          gpu_config: Optional[GPUConfig] = None,
                          detector_config: Optional[HAccRGConfig] = None
                          ) -> Dict[str, Any]:
    """Generate + execute + differentially judge one program.

    The run digest covers only the dynamic stack (``res.digest``), so
    records stay byte-comparable with pre-static campaigns cell by cell;
    the ``static`` section rides alongside.
    """
    program = generate_mg_program(seed, params)
    mg = MultiGPUSimulator(
        num_devices=params.gpus, gpu_config=gpu_config,
        detector_config=detector_config or HAccRGConfig(),
        timing_enabled=False)
    buf = mg.malloc("mg_fuzz_buf", params.n, home=0, shared=True)
    for phase in _program_phases(program, buf):
        mg.run_phase(phase)
    res = mg.finalize(name=f"mg_fuzz[{seed}]")
    return {
        "seed": seed,
        "phases": res.phases,
        "events": res.events,
        "oracle_races": len(res.cross_races),
        "detector_races": len(res.detector_reports),
        "contradictions": list(res.contradictions),
        "static": _static_stage(program, res.cross_races),
        "digest": res.digest,
    }


def _prefiltered_record(seed: int, program: Dict[str, Any],
                        report: Dict[str, Any]) -> Dict[str, Any]:
    """A skipped cell: the static pass proved the program race-free.

    Shaped like a normal iteration record so summary math is uniform;
    the digest is derived from the canonical static report instead of
    the (never produced) merged event stream.
    """
    return {
        "seed": seed,
        "phases": len(program["phases"]),
        "events": 0,
        "oracle_races": 0,
        "detector_races": 0,
        "contradictions": [],
        "static": {
            "verdicts": dict(report["verdicts"]),
            "contradictions": [],
            "report_sha": _static_sha(report),
        },
        "prefiltered": True,
        "digest": "static:" + _static_sha(report),
    }


def run_mg_fuzz(seed: int, iterations: int,
                params: MGFuzzParams = MGFuzzParams(),
                gpu_config: Optional[GPUConfig] = None,
                static_prefilter: bool = False) -> Dict[str, Any]:
    """A deterministic multi-GPU fuzz campaign; returns the summary record.

    Iteration seeds derive arithmetically from the base seed, so the
    campaign digest is fully determined by ``(seed, iterations, params)``.
    With ``static_prefilter``, programs the static analyzer proves
    race-free (zero racy AND zero unknown regions) skip the multi-device
    simulation entirely; every non-skipped cell keeps its byte-identical
    dynamic digest, so prefiltered and plain campaigns remain
    cell-by-cell comparable via the summary's ``cells`` list.
    """
    results: List[Dict[str, Any]] = []
    prefiltered = 0
    for i in range(iterations):
        s = seed + i
        if static_prefilter:
            program = generate_mg_program(s, params)
            report = mg_static_report(program)
            verdicts = report["verdicts"]
            if not verdicts["racy"] and not verdicts["unknown"]:
                results.append(_prefiltered_record(s, program, report))
                prefiltered += 1
                continue
        results.append(
            run_mg_fuzz_iteration(s, params, gpu_config=gpu_config))
    contradictions = [
        f"seed {r['seed']}: {c}" for r in results
        for c in r["contradictions"]
    ]
    static_contradictions = [
        f"seed {r['seed']}: {c}" for r in results
        for c in r["static"]["contradictions"]
    ]
    h = hashlib.sha256()
    for r in results:
        h.update(r["digest"].encode("utf-8"))
    return {
        "schema": MG_FUZZ_SCHEMA,
        "seed": seed,
        "iterations": iterations,
        "params": params.record(),
        "racy_programs": sum(1 for r in results if r["oracle_races"]),
        "oracle_races": sum(r["oracle_races"] for r in results),
        "detector_races": sum(r["detector_races"] for r in results),
        "contradictions": contradictions,
        "static_contradictions": static_contradictions,
        "static_prefilter": bool(static_prefilter),
        "prefiltered": prefiltered,
        "cells": [
            {"seed": r["seed"], "digest": r["digest"],
             "prefiltered": bool(r.get("prefiltered"))}
            for r in results
        ],
        "digest": h.hexdigest(),
    }


def mg_fuzz_digest(record: Dict[str, Any]) -> str:
    """Canonical digest of a fuzz summary (for cross-run comparison)."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
