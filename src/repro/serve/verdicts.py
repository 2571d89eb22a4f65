"""Digest-keyed verdict cache over the campaign result store.

Verdicts are cached in a :class:`repro.campaign.store.ResultStore` under
the replay job's content key — SHA-256 over ``(trace digest, backend,
config digest, program)``. Repeat submissions of a trace the service has
already judged are served straight from disk, no worker replay; the
store's corruption semantics carry over (a bad entry is evicted and the
job recomputes).

Each verdict is read and validated once: :meth:`VerdictCache.get_bytes`
keeps the canonical wire bytes of recent entries in memory, tagged with
the file's identity (inode, size, mtime). The ``POST /jobs`` cache-hit
check and the ``GET /verdicts/{key}`` fetch that follows it share that
one read, and a fetch re-encodes nothing. A file that changed on disk
no longer matches its tag, so it is read and validated again.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.campaign.store import STORE_SCHEMA, ResultStore
from repro.serve.backends import DIGEST, verdict_bytes
from repro.serve.worker import REPLAY_JOB_SCHEMA, ReplayJob

#: total verdict bytes kept in memory (least recently used go first)
MEMO_BYTES = 32 << 20


def _identity(stat: os.stat_result) -> Tuple[int, int, int]:
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


class VerdictCache:
    """Content-addressed verdict records keyed by replay-job hash."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.store = ResultStore(root)
        self._memo: "OrderedDict[str, Tuple[Tuple[int, int, int], bytes]]" \
            = OrderedDict()
        self._memo_bytes = 0

    # ------------------------------------------------------------------

    def put(self, job: ReplayJob, verdict: Dict[str, Any],
            elapsed: Optional[float] = None) -> None:
        self.store.put(_Keyed(job), verdict, elapsed=elapsed)

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The canonical wire bytes of a cached verdict, or None.

        A missing entry is a miss; a corrupt or stale one is evicted
        (deleted) and is a miss, so its job recomputes.
        """
        if not DIGEST.fullmatch(key):
            self.store.misses += 1
            return None
        path = self.store.path_for(key)
        try:
            identity = _identity(path.stat())
        except OSError:
            self._forget(key)
            self.store.misses += 1
            return None
        memo = self._memo.get(key)
        if memo is not None and memo[0] == identity:
            self._memo.move_to_end(key)
            self.store.hits += 1
            return memo[1]
        self._forget(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            if entry["key"] != key or entry["schema"] != STORE_SCHEMA \
                    or entry["job"]["schema"] != REPLAY_JOB_SCHEMA \
                    or entry["job"].get("kind") != "replay":
                raise ValueError("stale or mismatched verdict entry")
            result = entry["result"]
            if not isinstance(result, dict):
                raise ValueError("malformed verdict record")
        except FileNotFoundError:
            self.store.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            self.store.evictions += 1
            self.store.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.store.hits += 1
        body = verdict_bytes(result)
        self._remember(key, identity, body)
        return body

    def _remember(self, key: str, identity: Tuple[int, int, int],
                  body: bytes) -> None:
        self._memo[key] = (identity, body)
        self._memo_bytes += len(body)
        while self._memo_bytes > MEMO_BYTES:
            _, (_, old) = self._memo.popitem(last=False)
            self._memo_bytes -= len(old)

    def _forget(self, key: str) -> None:
        memo = self._memo.pop(key, None)
        if memo is not None:
            self._memo_bytes -= len(memo[1])

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return self.store.stats()

    def __len__(self) -> int:
        return len(self.store)


class _Keyed:
    """Adapter giving ResultStore.put the Job interface for a ReplayJob."""

    def __init__(self, job: ReplayJob) -> None:
        self._job = job

    def key(self) -> str:
        return self._job.key()

    def record(self) -> Dict[str, Any]:
        return self._job.record()
