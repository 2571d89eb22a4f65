"""Content-addressed on-disk result store.

Entries live under ``root/<key[:2]>/<key>.json`` where ``key`` is the
job's canonical SHA-256 (:meth:`repro.campaign.jobs.Job.key`). Each entry
stores the canonical job record alongside the lossless result record, so
the store doubles as a self-describing experiment archive: any entry can
be re-validated or re-executed from its own file.

Corruption is never fatal: an entry that fails to parse or whose key does
not match its contents is evicted on read and the job simply recomputes.
Writes are atomic (temp file + rename) so a killed campaign cannot leave
a half-written entry behind.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.campaign.jobs import JOB_SCHEMA, Job
from repro.common.fsutil import atomic_write

#: store layout version (independent of JOB_SCHEMA, which keys the hash)
STORE_SCHEMA = 1


class ResultStore:
    """Content-addressed cache of job results, keyed by job hash."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, job: Job) -> bool:
        return self.path_for(job.key()).exists()

    def get(self, job: Job) -> Optional[Dict[str, Any]]:
        """The stored result record, or None (counting a miss).

        A corrupt or mismatched entry is evicted and reported as a miss —
        callers recompute, they never crash on a bad cache file.
        """
        key = job.key()
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            if entry["key"] != key or entry["schema"] != STORE_SCHEMA \
                    or entry["job"]["schema"] != JOB_SCHEMA:
                raise ValueError("stale or mismatched entry")
            result = entry["result"]
            if not isinstance(result, dict):
                raise ValueError("malformed result record")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            self.evictions += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(self, job: Job, result: Dict[str, Any],
            elapsed: Optional[float] = None) -> Path:
        """Atomically persist one result record; returns its path."""
        key = job.key()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": STORE_SCHEMA,
            "key": key,
            "job": job.record(),
            "created": time.time(),
            "elapsed": elapsed,
            "result": result,
        }
        atomic_write(path, json.dumps(entry, sort_keys=True))
        return path

    # ------------------------------------------------------------------
    # maintenance

    def entries(self) -> Iterator[Tuple[str, Path]]:
        """All (key, path) pairs currently in the store."""
        for sub in sorted(self.root.iterdir()) if self.root.exists() else []:
            if not sub.is_dir():
                continue
            for path in sorted(sub.glob("*.json")):
                yield path.stem, path

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def prune(self, older_than_seconds: Optional[float] = None) -> int:
        """Delete entries (all, or only those older than the cutoff)."""
        now = time.time()
        removed = 0
        for _, path in list(self.entries()):
            if older_than_seconds is not None:
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                if age < older_than_seconds:
                    continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}
