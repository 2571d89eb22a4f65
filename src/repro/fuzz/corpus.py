"""On-disk fuzz corpus: programs, binary traces, campaign summary.

Layout under the corpus root::

    programs/<digest>.json   every interesting program (JSON record)
    traces/<digest>.bin      compact binary trace (real-bug reproducers)
    summary.json             last campaign's aggregate + corpus digest

"Interesting" means: injected programs, any program with a triaged
mismatch, and every real-bug reproducer (those also get their minimized
form and binary trace persisted). The campaign digest is a sha256 over
the sorted ``(hash, note, labels)`` rows — two runs with the same seed
must produce byte-identical digests, which the determinism test and the
CI smoke job assert.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Optional

from repro.common.fsutil import atomic_write
from repro.fuzz.program import FuzzProgram


def _labels_of(record: Dict[str, Any]) -> List[str]:
    """Flat, sorted triage labels across all modes of one iteration."""
    labels = []
    for name, res in sorted(record.get("modes", {}).items()):
        for lab, n in sorted(res.get("fp", {}).items()):
            labels.append(f"{name}:fp:{lab}:{n}")
        for lab, n in sorted(res.get("fn", {}).items()):
            labels.append(f"{name}:fn:{lab}:{n}")
        if not res.get("parity_ok", True):
            labels.append(f"{name}:parity")
    if not record.get("expected_ok", True):
        labels.append("oracle:expected-mismatch")
    static = record.get("static", {})
    if static.get("error"):
        labels.append("static:error")
    for c in static.get("contradictions", ()):
        labels.append(f"static:{c.get('type', 'contradiction')}")
    if record.get("prefiltered"):
        labels.append("static:prefiltered")
    return sorted(labels)


def corpus_digest(records: Iterable[Dict[str, Any]]) -> str:
    """Deterministic digest of a campaign's outcome."""
    rows = sorted((r["hash"], r.get("note", ""), *_labels_of(r))
                  for r in records)
    payload = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CorpusStore:
    """Content-addressed store for fuzz programs and traces."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.programs_dir = os.path.join(root, "programs")
        self.traces_dir = os.path.join(root, "traces")

    def _ensure(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    # -- programs ------------------------------------------------------

    def put_program(self, program: FuzzProgram) -> str:
        self._ensure(self.programs_dir)
        digest = program.digest()
        path = os.path.join(self.programs_dir, f"{digest}.json")
        if not os.path.exists(path):
            atomic_write(path, json.dumps(program.record(), indent=2,
                                          sort_keys=True))
        return digest

    def get_program(self, digest: str) -> Optional[FuzzProgram]:
        path = os.path.join(self.programs_dir, f"{digest}.json")
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            return FuzzProgram.from_record(json.load(fh))

    def list_programs(self) -> List[str]:
        if not os.path.isdir(self.programs_dir):
            return []
        return sorted(p[:-5] for p in os.listdir(self.programs_dir)
                      if p.endswith(".json"))

    # -- traces --------------------------------------------------------

    def put_trace(self, digest: str, events) -> str:
        from repro.harness.trace import write_trace

        self._ensure(self.traces_dir)
        path = os.path.join(self.traces_dir, f"{digest}.bin")
        write_trace(path, events, binary=True)
        return path

    # -- summary -------------------------------------------------------

    def write_summary(self, summary: Dict[str, Any]) -> str:
        self._ensure(self.root)
        path = os.path.join(self.root, "summary.json")
        atomic_write(path, json.dumps(summary, indent=2, sort_keys=True))
        return path

    def read_summary(self) -> Optional[Dict[str, Any]]:
        path = os.path.join(self.root, "summary.json")
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
