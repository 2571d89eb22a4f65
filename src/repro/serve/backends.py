"""Detector backends the service replays uploaded traces through.

Each :class:`Backend` names one differentially-validated way to turn a
recorded HART trace into a race verdict:

- ``replay`` backends feed the trace through the HAccRG detection
  structures (:func:`repro.harness.trace.replay`) — the exact structures
  a live :class:`~repro.core.detector.HAccRGDetector` drives from the
  EventBus, so replayed verdicts are bit-identical to live runs. The
  registry exposes the paper configuration with recorded Bloom lock
  signatures (``haccrg-bloom``), the same configuration with exact
  one-bit-per-lock signatures reconstructed from the trace's lock
  markers (``haccrg-full``), word-granularity and single-space variants,
  and the software-HAccRG algorithm (``swdetect`` — same detection
  state, software cost model; live-vs-replay parity is gated by the
  fuzz harness);
- the ``oracle`` backend runs the exact happens-before ground truth
  (:func:`repro.core.groundtruth.oracle_races`);
- the ``static`` backend runs the :mod:`repro.analyze` analyzer over a
  program spec accompanying the trace and cross-checks its verdicts
  against the oracle.

Verdicts are canonical JSON (sorted keys, minimal separators): the same
``(trace, backend, program)`` triple always produces byte-identical
output, whether computed by the service, a pool worker, or the
``repro trace replay --backend`` CLI. That byte-equality is what lets
the verdict cache be keyed by content digest.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.common.config import (
    DetectionMode,
    DetectorBackend,
    HAccRGConfig,
)
from repro.common.errors import ReproError

#: bump whenever verdict payloads change shape (invalidates cached verdicts)
VERDICT_SCHEMA = 1


class BackendError(ReproError):
    """A job names an unknown backend or misses a required input."""


def canonical_json(obj: Any) -> str:
    """The repo-wide canonical JSON form: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: what :func:`sha256_hex` returns: the only names the stores look up,
#: so a name from a URL never reaches the file system unchecked
DIGEST = re.compile(r"[0-9a-f]{64}")


def trace_digest(events: Sequence) -> str:
    """Content digest of a trace: SHA-256 of its canonical binary form.

    Digesting the re-encoded binary (not the uploaded bytes) makes the
    digest format-independent: the same logical trace uploaded as
    JSON-lines or binary lands on one cache entry.
    """
    from repro.harness.trace import dump_binary
    return sha256_hex(dump_binary(events))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _config_record(cfg: HAccRGConfig) -> Dict[str, Any]:
    import dataclasses
    import enum
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = value.name if isinstance(value, enum.Enum) else value
    return out


@dataclass(frozen=True)
class Backend:
    """One named detector configuration the service can run."""

    name: str
    kind: str                 # "replay" | "oracle" | "static"
    description: str
    config: Optional[HAccRGConfig] = None
    perfect_sigs: bool = False

    def config_record(self) -> Optional[Dict[str, Any]]:
        """JSON-safe detector configuration (enums by name), or None."""
        if self.config is None:
            return None
        rec = _config_record(self.config)
        rec["perfect_sigs"] = self.perfect_sigs
        return rec

    def config_digest(self) -> str:
        """Digest of everything that determines this backend's verdicts."""
        payload = canonical_json({
            "schema": VERDICT_SCHEMA,
            "kind": self.kind,
            "config": self.config_record(),
        })
        return sha256_hex(payload.encode("utf-8"))

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "config": self.config_record(),
            "config_digest": self.config_digest(),
            "needs_program": self.kind == "static",
        }


_PAPER = HAccRGConfig(mode=DetectionMode.FULL)
_WORD = HAccRGConfig(mode=DetectionMode.FULL, shared_granularity=4,
                     global_granularity=4)

BACKENDS: Dict[str, Backend] = {b.name: b for b in (
    Backend("haccrg-bloom", "replay",
            "paper HAccRG: FULL mode, 16B/4B granularity, recorded Bloom "
            "lock signatures", _PAPER),
    Backend("haccrg-full", "replay",
            "paper HAccRG with exact one-bit-per-lock signatures "
            "reconstructed from trace lock markers (Bloom aliasing "
            "removed)", _PAPER, perfect_sigs=True),
    Backend("haccrg-word", "replay",
            "HAccRG at word granularity (4B/4B) — the fuzz harness's "
            "hw-full-word configuration", _WORD),
    Backend("haccrg-shared", "replay",
            "shared-memory RDUs only, word granularity",
            _WORD.with_mode(DetectionMode.SHARED)),
    Backend("haccrg-global", "replay",
            "global-memory RDUs only, word granularity",
            _WORD.with_mode(DetectionMode.GLOBAL)),
    Backend("swdetect", "replay",
            "software HAccRG (§VI-B): same detection structures replayed "
            "under the software backend configuration",
            _WORD.with_backend(DetectorBackend.SOFTWARE)),
    Backend("oracle", "oracle",
            "exact byte-granularity happens-before ground truth"),
    Backend("static", "static",
            "repro.analyze static analyzer over an accompanying program "
            "spec, cross-checked against the oracle"),
)}

#: convenience aliases accepted anywhere a backend name is
ALIASES = {"haccrg": "haccrg-bloom"}


def backend_names() -> List[str]:
    return sorted(BACKENDS)


def get_backend(name: str) -> Backend:
    """Resolve a backend name or alias; raises :class:`BackendError`."""
    key = ALIASES.get(name, name)
    try:
        return BACKENDS[key]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r} (known: "
            f"{', '.join(backend_names())})") from None


# ---------------------------------------------------------------------------
# verdict computation
# ---------------------------------------------------------------------------

def _race_log_payload(log) -> Dict[str, Any]:
    from repro.harness.export import race_log_record
    return {
        "races": race_log_record(log),
        "distinct": len(log),
        "distinct_pairs": log.distinct_pairs(),
        "trips": log.total_trips(),
        "by_category": {c.name: n for c, n in log.by_category().items()},
        "by_kind": {k.name: n for k, n in log.by_kind().items()},
    }


def _oracle_payload(races) -> Dict[str, Any]:
    records = [
        {
            "space": r.space.name,
            "byte": int(r.byte),
            "kind": r.kind.name,
            "category": r.category.name,
            "first_tid": int(r.first_tid),
            "second_tid": int(r.second_tid),
            "first_block": int(r.first_block),
            "second_block": int(r.second_block),
            "stale_l1": bool(r.stale_l1),
        }
        for r in races
    ]
    records.sort(key=lambda d: (d["space"], d["byte"], d["kind"],
                                d["category"], d["first_tid"],
                                d["second_tid"]))
    return {
        "races": records,
        "count": len(records),
        "by_category": _count_by(records, "category"),
        "by_kind": _count_by(records, "kind"),
    }


def _count_by(records: List[Dict[str, Any]], field: str) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for r in records:
        out[r[field]] = out.get(r[field], 0) + 1
    return out


def _static_payload(events, program_record: Dict[str, Any]
                    ) -> Dict[str, Any]:
    from repro.analyze import analyze_program, cross_check
    from repro.core.groundtruth import oracle_races
    from repro.fuzz.program import FuzzProgram

    program = FuzzProgram.from_record(program_record)
    report = analyze_program(program)
    races = oracle_races(events)
    check = cross_check(report, races)
    return {
        "verdicts": report["verdicts"],
        "regions": report["regions"],
        "cross_check": {
            "racy_confirmed": check["racy_confirmed"],
            "race_free_clean": check["race_free_clean"],
            "unknown": check["unknown"],
            "contradictions": check["contradictions"],
        },
    }


def run_backend(backend: Backend, events: Sequence,
                program_record: Optional[Dict[str, Any]] = None
                ) -> Dict[str, Any]:
    """Produce one backend's verdict payload for a parsed trace."""
    if backend.kind == "replay":
        from repro.harness.trace import replay
        log = replay(events, backend.config,
                     perfect_sigs=backend.perfect_sigs)
        return _race_log_payload(log)
    if backend.kind == "oracle":
        from repro.core.groundtruth import oracle_races
        return _oracle_payload(oracle_races(events))
    if backend.kind == "static":
        if program_record is None:
            raise BackendError(
                "backend 'static' requires a program spec alongside the "
                "trace (job field 'program')")
        return _static_payload(events, program_record)
    raise BackendError(f"backend kind {backend.kind!r} not executable")


def verdict_record(digest: str, backend: Backend, events: Sequence,
                   program_record: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """The full canonical verdict for one (trace, backend, program)."""
    return {
        "schema": VERDICT_SCHEMA,
        "trace": digest,
        "backend": backend.name,
        "kind": backend.kind,
        "config": backend.config_record(),
        "config_digest": backend.config_digest(),
        "events": len(events),
        "result": run_backend(backend, events, program_record),
    }


def verdict_bytes(record: Dict[str, Any]) -> bytes:
    """The canonical wire form of a verdict (what digests are taken of)."""
    return canonical_json(record).encode("utf-8")


def verdict_key(digest: str, backend: Backend,
                program_record: Optional[Dict[str, Any]] = None) -> str:
    """Cache key: SHA-256 over (trace digest, backend, config digest).

    The program spec participates for static jobs — two different
    programs over one trace are distinct verdicts.
    """
    payload = canonical_json({
        "schema": VERDICT_SCHEMA,
        "trace": digest,
        "backend": backend.name,
        "config_digest": backend.config_digest(),
        "program": program_record,
    })
    return sha256_hex(payload.encode("utf-8"))
