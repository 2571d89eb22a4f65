"""Content-addressed job specifications.

A :class:`Job` captures one ``run_benchmark`` call — benchmark, detector
and GPU configuration, scale, seed, injection, and builder overrides — in
a canonical form whose SHA-256 hash is stable across processes, Python
versions, and dict insertion orders. The hash is the key of the
on-disk result store (:mod:`repro.campaign.store`): two invocations that
would simulate identically share one cache entry.

Canonicalization rules:

- ``gpu_config=None`` resolves to :func:`scaled_gpu_config` *before*
  hashing, so the key pins the actual hardware parameters rather than a
  default that could drift;
- a detector config in mode OFF collapses to ``None`` (``run_benchmark``
  treats them identically);
- injection sites and override keys are sorted;
- enums serialize by name, never by value.

``JOB_SCHEMA`` is part of the hashed payload — bump it whenever the
simulator's observable behaviour changes in a way that invalidates old
cached results.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.bench.common import Injection, NO_INJECTION
from repro.common.config import (
    DetectionMode,
    DetectorBackend,
    GPUConfig,
    HAccRGConfig,
    scaled_gpu_config,
)
from repro.common.errors import ConfigError

#: bump to invalidate every previously cached result
JOB_SCHEMA = 1

_JSON_PRIMITIVES = (str, int, float, bool, type(None))


class JobSpecError(ConfigError):
    """A job argument cannot be canonically serialized."""


def record_key(record: Dict[str, Any]) -> str:
    """SHA-256 of a job record's canonical JSON: every job kind's key."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _config_record(cfg) -> Dict[str, Any]:
    """A frozen config dataclass as a plain dict (enums by name)."""
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = value.name if isinstance(value, enum.Enum) else value
    return out


def _detector_from_record(record: Optional[Dict[str, Any]]
                          ) -> Optional[HAccRGConfig]:
    if record is None:
        return None
    kwargs = dict(record)
    kwargs["mode"] = DetectionMode[kwargs["mode"]]
    kwargs["backend"] = DetectorBackend[kwargs["backend"]]
    return HAccRGConfig(**kwargs)


@dataclass(frozen=True)
class Job:
    """One canonicalized ``run_benchmark`` cell."""

    bench: str
    detector: Optional[HAccRGConfig]
    gpu: GPUConfig
    scale: float
    seed: int
    omit: Tuple[str, ...]
    emit: Tuple[str, ...]
    timing_enabled: bool
    verify: bool
    overrides: Tuple[Tuple[str, Any], ...]

    @classmethod
    def from_call(cls, name: str,
                  detector_config: Optional[HAccRGConfig] = None,
                  gpu_config: Optional[GPUConfig] = None,
                  scale: float = 1.0,
                  seed: int = 0,
                  injection: Injection = NO_INJECTION,
                  timing_enabled: bool = True,
                  verify: bool = False,
                  overrides: Optional[Dict[str, Any]] = None) -> "Job":
        """Canonicalize the arguments of one ``run_benchmark`` call."""
        overrides = overrides or {}
        for key, value in overrides.items():
            if not isinstance(value, _JSON_PRIMITIVES):
                raise JobSpecError(
                    f"override {key!r} has non-JSON value {value!r}; "
                    f"campaign jobs only accept primitive overrides")
        if detector_config is not None and \
                detector_config.mode == DetectionMode.OFF:
            detector_config = None
        return cls(
            bench=name.upper(),
            detector=detector_config,
            gpu=gpu_config or scaled_gpu_config(),
            scale=float(scale),
            seed=int(seed),
            omit=injection.omit_sites,
            emit=injection.emit_sites,
            timing_enabled=bool(timing_enabled),
            verify=bool(verify),
            overrides=tuple(sorted(overrides.items())),
        )

    # ------------------------------------------------------------------
    # canonical form and key

    def record(self) -> Dict[str, Any]:
        """The canonical, JSON-safe form (what gets hashed and stored)."""
        return {
            "schema": JOB_SCHEMA,
            "bench": self.bench,
            "detector": (_config_record(self.detector)
                         if self.detector is not None else None),
            "gpu": _config_record(self.gpu),
            "scale": self.scale,
            "seed": self.seed,
            "injection": {"omit": list(self.omit), "emit": list(self.emit)},
            "timing_enabled": self.timing_enabled,
            "verify": self.verify,
            "overrides": {k: v for k, v in self.overrides},
        }

    def key(self) -> str:
        """Stable content hash of the canonical form."""
        return record_key(self.record())

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "Job":
        """Rebuild a Job from its canonical form (worker-side)."""
        if record.get("schema") != JOB_SCHEMA:
            raise JobSpecError(
                f"job schema {record.get('schema')!r} != {JOB_SCHEMA}")
        return cls(
            bench=record["bench"],
            detector=_detector_from_record(record["detector"]),
            gpu=GPUConfig(**record["gpu"]),
            scale=float(record["scale"]),
            seed=int(record["seed"]),
            omit=tuple(record["injection"]["omit"]),
            emit=tuple(record["injection"]["emit"]),
            timing_enabled=bool(record["timing_enabled"]),
            verify=bool(record["verify"]),
            overrides=tuple(sorted(record["overrides"].items())),
        )

    # ------------------------------------------------------------------
    # execution

    def run_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for ``run_benchmark_direct``."""
        kwargs: Dict[str, Any] = {
            "detector_config": self.detector,
            "gpu_config": self.gpu,
            "scale": self.scale,
            "seed": self.seed,
            "injection": Injection(omit=self.omit, emit=self.emit),
            "timing_enabled": self.timing_enabled,
            "verify": self.verify,
        }
        kwargs.update(dict(self.overrides))
        return kwargs

    def describe(self) -> str:
        """Short human-readable cell description for progress lines."""
        mode = self.detector.mode.name.lower() if self.detector else "off"
        extras = []
        if self.omit or self.emit:
            extras.append("inject=" + ",".join(self.omit + self.emit))
        if self.overrides:
            extras.append(",".join(f"{k}={v}" for k, v in self.overrides))
        suffix = (" [" + " ".join(extras) + "]") if extras else ""
        return f"{self.bench}/{mode}{suffix}"


def execute(job: Job) -> Dict[str, Any]:
    """Run one job to completion and return its lossless result record.

    This is what pool workers call: everything in, everything out is
    plain data, so it crosses ``spawn`` process boundaries without
    pickling simulator state.
    """
    from repro.harness.export import run_result_record
    from repro.harness.runner import run_benchmark_direct

    res = run_benchmark_direct(job.bench, **job.run_kwargs())
    return run_result_record(res)


def execute_bench_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point for benchmark jobs (the default kind)."""
    return execute(Job.from_record(record))


# ---------------------------------------------------------------------------
# job-kind registry
#
# The pool executes *records*, not Job instances, so any subsystem can
# ride the same workers/cache/retry machinery by contributing a frozen
# spec with ``key()``/``record()`` and registering an executor for its
# ``kind``. Targets are "module:function" strings imported lazily so the
# supervisor process never pays for subsystems a campaign doesn't use.

JOB_EXECUTORS: Dict[str, str] = {
    "bench": "repro.campaign.jobs:execute_bench_record",
    "fuzz": "repro.fuzz.worker:execute_fuzz_record",
    "analyze": "repro.analyze.worker:execute_analyze_record",
    "replay": "repro.serve.worker:execute_replay_record",
    "multigpu": "repro.multigpu.runner:execute_mg_record",
    "mganalyze": "repro.analyze.mgworker:execute_mg_analyze_record",
}


def register_executor(kind: str, target: str) -> None:
    """Register (or override) the executor for one job kind."""
    if ":" not in target:
        raise JobSpecError(f"executor target {target!r} is not "
                           f"'module:function'")
    JOB_EXECUTORS[kind] = target


def _load_env_executors() -> None:
    """Pick up out-of-tree job kinds from ``REPRO_JOB_EXECUTORS``.

    Spawn workers import this module fresh, so in-process
    :func:`register_executor` calls never reach them; the environment
    does. Format: ``kind=module:function[,kind=module:function...]``.
    """
    import os

    for part in os.environ.get("REPRO_JOB_EXECUTORS", "").split(","):
        kind, _, target = part.strip().partition("=")
        if kind and ":" in target:
            JOB_EXECUTORS[kind] = target


_load_env_executors()


def execute_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one job record, dispatching on its ``kind`` field."""
    import importlib

    kind = record.get("kind", "bench")
    try:
        target = JOB_EXECUTORS[kind]
    except KeyError:
        raise JobSpecError(f"no executor registered for job kind "
                           f"{kind!r}") from None
    mod_name, fn_name = target.split(":", 1)
    fn = getattr(importlib.import_module(mod_name), fn_name)
    return fn(record)
