"""Multi-GPU run entry points: direct runs + campaign-pool adapter.

:func:`run_mg_benchmark` is the one way anything (CLI, tests, fuzz,
campaigns) executes a registered multi-GPU benchmark: it builds the
system, runs every phase, and finalizes into a
:class:`MultiGPUResult`.

:class:`MGJob` + :func:`execute_mg_record` ride the campaign engine's
workers/cache/retry machinery under job kind ``"multigpu"`` (see
``repro.campaign.jobs.JOB_EXECUTORS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.common.config import GPUConfig, HAccRGConfig
from repro.multigpu.bench import get_mg_benchmark
from repro.multigpu.system import MultiGPUResult, MultiGPUSimulator

#: bump when the result record shape changes (campaign cache fence)
MG_SCHEMA = 1


def run_mg_benchmark(name: str,
                     gpus: int = 2,
                     detector_config: Optional[HAccRGConfig] = None,
                     gpu_config: Optional[GPUConfig] = None,
                     scale: float = 1.0,
                     seed: int = 0,
                     injection: str = "",
                     timing_enabled: bool = True,
                     verify: bool = False,
                     with_oracle: bool = True,
                     tlb_entries: int = 16) -> MultiGPUResult:
    """Run one multi-GPU benchmark end to end.

    ``injection`` is an injection *name* from the benchmark's catalog
    entries (``""`` = fault-free) — names, not site objects, so the spec
    serializes into campaign job records.
    """
    bench = get_mg_benchmark(name)
    mg = MultiGPUSimulator(
        num_devices=gpus, gpu_config=gpu_config,
        detector_config=detector_config, timing_enabled=timing_enabled,
        tlb_entries=tlb_entries, with_oracle=with_oracle)
    plan = bench.plan(mg.pool, gpus=gpus, scale=scale, seed=seed,
                      injection=injection)
    for phase in plan.phases:
        mg.run_phase(phase)
    verified: Optional[bool] = None
    if verify and plan.verify is not None:
        plan.verify()  # raises on functional mismatch
        verified = True
    return mg.finalize(name=bench.name, verified=verified)


# ---------------------------------------------------------------------------
# campaign-pool adapter (job kind "multigpu")
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MGJob:
    """One content-addressed multi-GPU benchmark cell."""

    bench: str
    gpus: int = 2
    scale: float = 1.0
    seed: int = 0
    injection: str = ""
    detect: bool = True        #: attach per-device HAccRG detectors
    timing_enabled: bool = True
    verify: bool = False

    def record(self) -> Dict[str, Any]:
        from repro.campaign.jobs import JOB_SCHEMA
        return {
            "schema": JOB_SCHEMA,
            "kind": "multigpu",
            "mg_schema": MG_SCHEMA,
            "bench": self.bench,
            "gpus": self.gpus,
            "scale": self.scale,
            "seed": self.seed,
            "injection": self.injection,
            "detect": self.detect,
            "timing_enabled": self.timing_enabled,
            "verify": self.verify,
        }

    def key(self) -> str:
        # imported here: the campaign package is not needed to simulate
        from repro.campaign.jobs import record_key

        return record_key(self.record())

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "MGJob":
        from repro.campaign.jobs import JobSpecError
        if record.get("kind") != "multigpu":
            raise JobSpecError(
                f"not a multigpu job record: {record.get('kind')!r}")
        return cls(
            bench=str(record["bench"]),
            gpus=int(record["gpus"]),
            scale=float(record["scale"]),
            seed=int(record["seed"]),
            injection=str(record["injection"]),
            detect=bool(record["detect"]),
            timing_enabled=bool(record["timing_enabled"]),
            verify=bool(record["verify"]),
        )

    def describe(self) -> str:
        suffix = f"+{self.injection}" if self.injection else ""
        return f"{self.bench}{suffix} x{self.gpus}"


def run_mg_record(job: MGJob) -> Dict[str, Any]:
    """Execute one multi-GPU job; returns the JSON-safe result record."""
    res = run_mg_benchmark(
        job.bench, gpus=job.gpus,
        detector_config=HAccRGConfig() if job.detect else None,
        scale=job.scale, seed=job.seed, injection=job.injection,
        timing_enabled=job.timing_enabled, verify=job.verify)
    return res.record()


def execute_mg_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point for ``kind: "multigpu"`` job records."""
    return run_mg_record(MGJob.from_record(record))
