"""Content-addressed store for uploaded HART traces.

Uploads are parsed (rejecting corrupt/truncated files with
:class:`~repro.common.errors.TraceFormatError`), re-encoded to the
canonical binary form, and stored under their SHA-256 digest:
``root/<digest[:2]>/<digest>.hart`` plus a ``.meta.json`` sidecar with
the event count and byte size. Re-encoding makes the digest independent
of the upload format — JSON-lines and binary uploads of the same logical
trace share one entry — and guarantees every stored file is loadable.

Writes are atomic (temp + rename); a concurrent identical upload simply
wins the rename race with identical bytes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

from repro.common.fsutil import atomic_write
from repro.harness.trace import TraceEvent, dump_binary, parse_trace
from repro.serve.backends import sha256_hex


class TraceStore:
    """Digest-keyed trace files with parse-on-ingest validation."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.hart"

    def _meta_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.meta.json"

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def put_bytes(self, data: bytes) -> Dict[str, Any]:
        """Validate, canonicalize, and store one uploaded trace.

        Returns the upload receipt: digest, event count, stored bytes.
        Raises :class:`TraceFormatError` if the upload does not parse.
        """
        events = parse_trace(data)
        canonical = dump_binary(events)
        digest = sha256_hex(canonical)
        path = self.path_for(digest)
        meta = {"digest": digest, "events": len(events),
                "bytes": len(canonical)}
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, canonical)
            atomic_write(self._meta_path(digest),
                         json.dumps(meta, sort_keys=True))
        return meta

    def put_events(self, events: List[TraceEvent]) -> Dict[str, Any]:
        """Store an already-parsed trace (recording-side convenience)."""
        return self.put_bytes(dump_binary(events))

    def get(self, digest: str) -> List[TraceEvent]:
        """Load and parse one stored trace; KeyError if absent."""
        path = self.path_for(digest)
        if not path.exists():
            raise KeyError(digest)
        return parse_trace(path.read_bytes())

    def meta(self, digest: str) -> Dict[str, Any]:
        """The upload receipt for one stored trace; KeyError if absent."""
        meta_path = self._meta_path(digest)
        if meta_path.exists():
            try:
                loaded = json.loads(meta_path.read_text(encoding="utf-8"))
                if loaded.get("digest") == digest:
                    return loaded
            except (ValueError, OSError):
                pass
        path = self.path_for(digest)
        if not path.exists():
            raise KeyError(digest)
        data = path.read_bytes()
        return {"digest": digest, "events": len(parse_trace(data)),
                "bytes": len(data)}

    # ------------------------------------------------------------------

    def entries(self) -> Iterator[Tuple[str, Path]]:
        for sub in sorted(self.root.iterdir()) if self.root.exists() else []:
            if not sub.is_dir():
                continue
            for path in sorted(sub.glob("*.hart")):
                yield path.stem, path

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())
