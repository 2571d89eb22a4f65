"""Resumable campaign state.

The engine checkpoints every job-state transition to a small JSON file so
a campaign survives Ctrl-C, a crashed driver, or a rebooted CI runner:
re-running the same campaign command resumes exactly where it stopped.
Jobs found ``running`` at load time are demoted to ``pending`` (their
worker died with the previous driver); ``done`` jobs whose store entry
has since been evicted are also re-queued by the engine.

Saves are atomic (temp file + rename), mirroring the result store.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.common.fsutil import atomic_write

STATE_SCHEMA = 1

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_STATUSES = (PENDING, RUNNING, DONE, FAILED)


@dataclass
class JobState:
    """Tracked lifecycle of one campaign cell."""

    key: str
    label: str
    status: str = PENDING
    attempts: int = 0
    error: Optional[str] = None
    elapsed: Optional[float] = None
    cached: bool = False


@dataclass
class CampaignState:
    """Persistent pending/running/done/failed map for one campaign."""

    campaign: str
    path: Optional[Path] = None
    jobs: Dict[str, JobState] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # persistence

    @classmethod
    def load(cls, path: os.PathLike | str, campaign: str) -> "CampaignState":
        """Load the state file, or start fresh if absent/corrupt.

        A corrupt state file is not fatal — the store still dedups any
        work that already completed, so the worst case is re-verifying
        cache hits.
        """
        path = Path(path)
        state = cls(campaign=campaign, path=path)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if data.get("schema") != STATE_SCHEMA:
                raise ValueError("unknown state schema")
            for record in data.get("jobs", []):
                js = JobState(**record)
                if js.status not in _STATUSES:
                    raise ValueError(f"bad status {js.status!r}")
                # a previous driver died mid-job: its worker is gone
                if js.status == RUNNING:
                    js.status = PENDING
                state.jobs[js.key] = js
        except FileNotFoundError:
            pass
        except (ValueError, KeyError, TypeError, OSError):
            state.jobs.clear()
        return state

    def save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "schema": STATE_SCHEMA,
            "campaign": self.campaign,
            "jobs": [asdict(js) for js in self.jobs.values()],
        }
        atomic_write(self.path, json.dumps(data, indent=1, sort_keys=True))

    # ------------------------------------------------------------------
    # transitions

    def sync_jobs(self, labeled: List[Tuple[str, str]]) -> None:
        """Reconcile the state with the campaign's current job list.

        ``labeled`` is (label, key) pairs. New cells appear as pending;
        cells no longer in the campaign are dropped; completed cells keep
        their terminal status.
        """
        keys = {key for _, key in labeled}
        for key in [k for k in self.jobs if k not in keys]:
            del self.jobs[key]
        for label, key in labeled:
            if key not in self.jobs:
                self.jobs[key] = JobState(key=key, label=label)
            else:
                self.jobs[key].label = label

    def requeue(self, key: str) -> None:
        js = self.jobs[key]
        js.status = PENDING
        js.error = None

    def mark_running(self, key: str) -> None:
        js = self.jobs[key]
        js.status = RUNNING
        js.attempts += 1

    def mark_done(self, key: str, elapsed: Optional[float] = None,
                  cached: bool = False) -> None:
        js = self.jobs[key]
        js.status = DONE
        js.error = None
        js.elapsed = elapsed
        js.cached = cached

    def mark_failed(self, key: str, error: str) -> None:
        js = self.jobs[key]
        js.status = FAILED
        js.error = error

    # ------------------------------------------------------------------
    # queries

    def pending(self) -> List[JobState]:
        return [js for js in self.jobs.values() if js.status == PENDING]

    def counts(self) -> Dict[str, int]:
        out = {status: 0 for status in _STATUSES}
        for js in self.jobs.values():
            out[js.status] += 1
        return out

    def failures(self) -> List[JobState]:
        return [js for js in self.jobs.values() if js.status == FAILED]

    def finished(self) -> bool:
        return all(js.status in (DONE, FAILED) for js in self.jobs.values())

    def summary(self) -> str:
        """Human-readable status block for ``repro campaign status``."""
        counts = self.counts()
        total = len(self.jobs)
        lines = [
            f"campaign: {self.campaign} ({total} jobs)",
            "  " + "  ".join(f"{status}: {counts[status]}"
                             for status in _STATUSES),
        ]
        for js in self.failures():
            lines.append(f"  FAILED {js.label} after {js.attempts} "
                         f"attempt(s): {js.error}")
        return "\n".join(lines)
