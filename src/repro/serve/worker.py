"""Worker-side execution of service replay jobs.

A :class:`ReplayJob` is the service's unit of work: replay one stored
trace through one backend. Like every campaign job kind it is plain
data with a canonical ``record()`` and a content-hash ``key()`` — the
key is the verdict-cache key, so a job's identity *is* its verdict's
identity: ``(trace digest, backend, config digest, program)``. The
trace's on-disk path rides along in the record (workers are separate
``spawn`` processes and need to find the bytes) but never participates
in the hash — keys are host-independent.

``execute_replay_record`` is registered under job kind ``"replay"`` in
:data:`repro.campaign.jobs.JOB_EXECUTORS`, so service jobs run on the
exact same worker machinery (timeout, retry, crash isolation) as
campaign cells. It checks the stored bytes against the job's digest
before it parses them, and keeps the parsed events of the traces it
replayed last (bounded by their raw size), so the other backends of a
trace, which prefer the same worker, do not parse it again.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import TraceFormatError
from repro.serve.backends import (
    canonical_json,
    get_backend,
    sha256_hex,
    verdict_key,
    verdict_record,
)

REPLAY_JOB_SCHEMA = 1


@dataclass(frozen=True)
class ReplayJob:
    """One (trace, backend[, program]) replay request."""

    trace: str                               # content digest of the trace
    backend: str                             # resolved backend name
    trace_path: str                          # where the worker reads bytes
    program: Optional[str] = None            # canonical JSON program record

    @classmethod
    def create(cls, trace_digest: str, backend_name: str,
               trace_path: os.PathLike | str,
               program_record: Optional[Dict[str, Any]] = None
               ) -> "ReplayJob":
        backend = get_backend(backend_name)   # raises BackendError early
        return cls(
            trace=trace_digest,
            backend=backend.name,
            trace_path=str(trace_path),
            program=(canonical_json(program_record)
                     if program_record is not None else None),
        )

    def program_record(self) -> Optional[Dict[str, Any]]:
        import json
        return json.loads(self.program) if self.program is not None else None

    def record(self) -> Dict[str, Any]:
        return {
            "kind": "replay",
            "schema": REPLAY_JOB_SCHEMA,
            "trace": self.trace,
            "backend": self.backend,
            "program": self.program,
            "trace_path": self.trace_path,
        }

    def key(self) -> str:
        """The verdict-cache key (trace_path intentionally excluded)."""
        return verdict_key(self.trace, get_backend(self.backend),
                           self.program_record())

    def describe(self) -> str:
        return f"{self.backend}@{self.trace[:12]}"


#: the parsed events of the traces this process replayed last, least
#: recently used first, as (raw bytes, events) by digest. Jobs shard by
#: digest, so a trace's worker runs its backends whenever it is free and
#: parses it once while it stays here; a job spilled to another worker
#: parses it there too. The raw sizes sum to at most _PARSED_BYTES.
_PARSED: "OrderedDict[str, Tuple[int, List[Any]]]" = OrderedDict()
_PARSED_BYTES = 32 * 1024 * 1024
_PARSED_LOCK = threading.Lock()


def _events_of(digest: str, data: bytes) -> List[Any]:
    """The parsed events of ``data``, whose SHA-256 is ``digest``."""
    from repro.harness.trace import parse_trace

    with _PARSED_LOCK:
        hit = _PARSED.pop(digest, None)
    events = parse_trace(data) if hit is None else hit[1]
    with _PARSED_LOCK:
        _PARSED[digest] = (len(data), events)
        kept = sum(size for size, _ in _PARSED.values())
        while kept > _PARSED_BYTES:
            kept -= _PARSED.popitem(last=False)[1][0]
    return events


def execute_replay_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point for job kind ``replay``.

    Reads the trace bytes and, before parsing them, checks that they
    still hash to the requested digest: stored files are canonical and
    named by their own SHA-256, so the raw bytes are what is hashed, with
    no re-encode (a corrupted store must surface as an error, not a
    wrong verdict). Then replays and returns the canonical verdict
    record.
    """
    if record.get("schema") != REPLAY_JOB_SCHEMA:
        raise ValueError(
            f"replay job schema {record.get('schema')!r} != "
            f"{REPLAY_JOB_SCHEMA}")
    backend = get_backend(record["backend"])
    path = Path(record["trace_path"])
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise TraceFormatError(f"trace file unreadable: {exc}") from exc
    actual = sha256_hex(data)
    if actual != record["trace"]:
        raise TraceFormatError(
            f"stored trace digest mismatch: expected {record['trace'][:12]} "
            f"got {actual[:12]} (corrupted store entry)")
    events = _events_of(actual, data)
    program = record.get("program")
    import json
    program_record = json.loads(program) if program is not None else None
    return verdict_record(record["trace"], backend, events, program_record)
