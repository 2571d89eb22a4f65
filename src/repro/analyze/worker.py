"""Campaign-engine adapter: static analyses as cached, parallel jobs.

An :class:`AnalyzeJob` names one program to analyze — either a fuzz
seed (``source="fuzz"``: the program `generate_program` derives from
``seed + index``) or a benchmark model (``source="bench"``: a
:mod:`repro.analyze.benchmodels` variant) — plus whether to
differentially validate the verdicts against the ground-truth oracle
(which costs one simulator run). Records carry ``kind: "analyze"`` and
dispatch through ``repro.campaign.jobs.JOB_EXECUTORS``, so analyze
sweeps get the campaign engine's cache/resume/parallelism for free.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.campaign.jobs import JOB_SCHEMA, JobSpecError, record_key
from repro.fuzz.generator import GeneratorParams

if TYPE_CHECKING:
    from repro.fuzz.program import FuzzProgram

#: results with a different analyze schema are never served from cache
ANALYZE_SCHEMA = 1


@dataclass(frozen=True)
class AnalyzeJob:
    """One content-addressed static analysis."""

    source: str = "fuzz"          # 'fuzz' | 'bench'
    seed: int = 0
    index: int = 0
    params: GeneratorParams = GeneratorParams()
    bench: str = ""
    omit: Tuple[str, ...] = ()
    emit: Tuple[str, ...] = ()
    validate: bool = True

    @property
    def iteration_seed(self) -> int:
        return self.seed + self.index

    def record(self) -> Dict[str, Any]:
        return {
            "schema": JOB_SCHEMA,
            "kind": "analyze",
            "analyze_schema": ANALYZE_SCHEMA,
            "source": self.source,
            "seed": self.seed,
            "index": self.index,
            "params": self.params.record(),
            "bench": self.bench,
            "omit": list(self.omit),
            "emit": list(self.emit),
            "validate": self.validate,
        }

    def key(self) -> str:
        return record_key(self.record())

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "AnalyzeJob":
        if record.get("schema") != JOB_SCHEMA or \
                record.get("kind") != "analyze":
            raise JobSpecError(
                f"not an analyze job record: {record.get('kind')!r}")
        return cls(
            source=str(record.get("source", "fuzz")),
            seed=int(record.get("seed", 0)),
            index=int(record.get("index", 0)),
            params=GeneratorParams.from_record(record["params"]),
            bench=str(record.get("bench", "")),
            omit=tuple(record.get("omit", ())),
            emit=tuple(record.get("emit", ())),
            validate=bool(record.get("validate", True)),
        )

    def describe(self) -> str:
        if self.source == "bench":
            tag = ",".join(self.omit + self.emit) or "safe"
            return f"analyze[{self.bench}:{tag}]"
        return f"analyze[{self.index}] seed={self.iteration_seed}"

    def program(self) -> "FuzzProgram":
        if self.source == "bench":
            from repro.analyze.benchmodels import build_model

            return build_model(self.bench, omit=self.omit, emit=self.emit)
        from repro.fuzz.generator import generate_program

        return generate_program(self.iteration_seed, self.params)


def execute_analyze_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point (see ``JOB_EXECUTORS['analyze']``)."""
    from repro.analyze.validate import cross_check
    from repro.analyze.verdict import analyze_program, report_json

    job = AnalyzeJob.from_record(record)
    program = job.program()
    report = analyze_program(program)
    result: Dict[str, Any] = {
        "schema": ANALYZE_SCHEMA,
        "hash": program.digest(),
        "note": program.note,
        "index": job.index,
        "source": job.source,
        "verdicts": report["verdicts"],
        "report_sha": hashlib.sha256(
            report_json(report).encode("utf-8")).hexdigest(),
        "report": report,
    }
    if job.validate:
        from repro.core.groundtruth import oracle_races
        from repro.fuzz.program import record_program

        races = oracle_races(record_program(program))
        result["validation"] = cross_check(report, races)
    return result


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

@dataclass
class AnalyzeCampaignResult:
    """Aggregate outcome of one analyze campaign."""

    results: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    cache_hits: int = 0

    @property
    def contradictions(self) -> int:
        return sum(len(r.get("validation", {}).get("contradictions", ()))
                   for r in self.results) + len(self.failures)

    def summary(self) -> Dict[str, Any]:
        from repro.analyze.validate import validation_table

        verdicts = {"racy": 0, "unknown": 0, "race_free": 0}
        for rec in self.results:
            for k in verdicts:
                verdicts[k] += rec.get("verdicts", {}).get(k, 0)
        validated = [rec["validation"] for rec in self.results
                     if "validation" in rec]
        return {
            "schema": ANALYZE_SCHEMA,
            "programs": len(self.results),
            "errors": len(self.failures),
            "cache_hits": self.cache_hits,
            "verdicts": verdicts,
            "contradictions": self.contradictions,
            "validation": validation_table(validated),
        }


def run_analyze_campaign(seed: int = 0, iterations: int = 0,
                         workers: int = 1,
                         params: Optional[GeneratorParams] = None,
                         benchmarks: bool = False,
                         injected: bool = False,
                         validate: bool = True,
                         cache_dir: Optional[str] = None,
                         timeout: Optional[float] = None,
                         progress: Optional[Callable[..., None]] = None
                         ) -> AnalyzeCampaignResult:
    """Analyze a fuzz-seed range and/or the benchmark models.

    ``benchmarks`` adds the ten race-free baseline models; ``injected``
    adds every distinct injected variant of the 41-spec catalog.
    """
    from repro.campaign.engine import run_cached

    params = params or GeneratorParams()
    jobs: Dict[str, AnalyzeJob] = {}
    for i in range(iterations):
        job = AnalyzeJob(source="fuzz", seed=seed, index=i,
                         params=params, validate=validate)
        jobs[job.key()] = job
    if benchmarks:
        from repro.analyze.benchmodels import BENCHES

        for bench in BENCHES:
            job = AnalyzeJob(source="bench", bench=bench,
                             validate=validate)
            jobs[job.key()] = job
    if injected:
        from repro.bench.injection import INJECTION_CATALOG

        for spec in INJECTION_CATALOG:
            job = AnalyzeJob(source="bench", bench=spec.bench,
                             omit=spec.omit, emit=spec.emit,
                             validate=validate)
            jobs[job.key()] = job

    batch = run_cached(jobs, ANALYZE_SCHEMA, cache_dir, workers, timeout,
                       progress)
    result = AnalyzeCampaignResult(cache_hits=batch.cache_hits)
    result.failures = [
        {"job": job.describe(), "status": outcome.status,
         "error": outcome.error}
        for job, outcome in batch.failures]
    result.results = sorted(
        batch.records.values(),
        key=lambda r: (r.get("source", ""), r.get("index", 0),
                       r.get("note", "")))
    return result


__all__ = [
    "ANALYZE_SCHEMA",
    "AnalyzeCampaignResult",
    "AnalyzeJob",
    "execute_analyze_record",
    "run_analyze_campaign",
]
