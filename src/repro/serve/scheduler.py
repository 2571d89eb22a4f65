"""Job scheduling: backpressure, rate limiting, job tracking.

Replays run on the campaign engine's :class:`~repro.campaign.pool.
WorkerPool`, started on its background thread. Each job is submitted
with its trace digest as the shard, so all verdicts for one trace land
on one worker: deterministic affinity, one worker's parsed-trace cache
serves all of a trace's backends, and no two workers ever replay the
same upload concurrently.

- :class:`TokenBucket` is the per-client rate limiter: ``rate`` tokens
  per second, ``burst`` capacity; an empty bucket yields 429 with a
  Retry-After telling the client when one token will be back.

- :class:`Scheduler` is the asyncio-facing layer the HTTP app talks to:
  it checks the verdict cache first (cache hits never touch the pool),
  coalesces concurrent identical submissions onto one in-flight replay,
  applies backpressure past a high-water mark of queued work (429, the
  job is *rejected*, never silently dropped), and tracks every accepted
  job's lifecycle for ``GET /jobs/{id}``.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.pool import ERROR, JobOutcome, WorkerPool
from repro.common.errors import ReproError
from repro.serve.verdicts import VerdictCache
from repro.serve.worker import ReplayJob

#: job lifecycle states (terminal states match pool outcome statuses)
QUEUED, RUNNING, DONE = "queued", "running", "done"


class Backpressure(ReproError):
    """The service is at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RateLimited(Backpressure):
    """This client exceeded its token budget."""


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = time.monotonic()

    def try_acquire(self, now: Optional[float] = None) -> float:
        """Take one token. Returns 0.0 on success, else seconds to wait."""
        now = time.monotonic() if now is None else now
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        if self.rate <= 0:
            return 60.0
        return (1.0 - self._tokens) / self.rate


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------

@dataclass
class JobState:
    """Lifecycle of one accepted submission."""

    id: str
    key: str                       # verdict cache key
    trace: str
    backend: str
    status: str = QUEUED           # queued|running|done|error|timeout|crashed
    cached: bool = False
    coalesced: bool = False
    attempts: int = 0
    error: Optional[str] = None
    elapsed: float = 0.0
    created: float = field(default_factory=time.time)
    finished: Optional[float] = None

    def describe(self) -> Dict[str, Any]:
        out = {
            "job": self.id,
            "verdict": self.key,
            "trace": self.trace,
            "backend": self.backend,
            "status": self.status,
            "cached": self.cached,
            "coalesced": self.coalesced,
        }
        if self.status not in (QUEUED, RUNNING):
            out["attempts"] = self.attempts
            out["elapsed"] = round(self.elapsed, 6)
        if self.error is not None:
            out["error"] = self.error
        return out


class Scheduler:
    """Async facade: cache, coalescing, backpressure, job tracking."""

    #: retain at most this many finished job states
    MAX_JOBS = 4096

    def __init__(self, pool: WorkerPool, cache: VerdictCache,
                 high_water: int = 64,
                 rate: float = 50.0, burst: float = 100.0) -> None:
        self.pool = pool
        self.cache = cache
        self.high_water = max(1, int(high_water))
        self.rate = rate
        self.burst = burst
        self._jobs: Dict[str, JobState] = {}
        self._inflight: Dict[str, Tuple["Future", List[JobState]]] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._ids = itertools.count(1)
        self.metrics = {
            "submitted": 0, "cache_hits": 0, "coalesced": 0,
            "accepted": 0, "rejected_backpressure": 0,
            "rejected_rate_limit": 0, "replays": 0, "failed": 0,
        }

    # ------------------------------------------------------------------

    def _next_id(self) -> str:
        return f"j{next(self._ids):08d}"

    def job(self, job_id: str) -> JobState:
        return self._jobs[job_id]    # KeyError -> 404 upstream

    @property
    def inflight(self) -> int:
        return sum(len(states) for _, states in self._inflight.values())

    def _check_rate(self, client: str) -> None:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(self.rate,
                                                         self.burst)
            if len(self._buckets) > 4096:  # bound per-client state
                self._buckets.pop(next(iter(self._buckets)))
        wait = bucket.try_acquire()
        if wait > 0.0:
            self.metrics["rejected_rate_limit"] += 1
            raise RateLimited(
                f"client {client!r} exceeded {self.rate:g} requests/s "
                f"(burst {self.burst:g})", retry_after=wait)

    def _prune_jobs(self) -> None:
        if len(self._jobs) <= self.MAX_JOBS:
            return
        finished = [j for j in self._jobs.values()
                    if j.status not in (QUEUED, RUNNING)]
        finished.sort(key=lambda j: j.finished or j.created)
        for state in finished[: len(self._jobs) - self.MAX_JOBS]:
            self._jobs.pop(state.id, None)

    # ------------------------------------------------------------------

    def submit(self, client: str, job: ReplayJob) -> JobState:
        """Accept, reject (429), or instantly serve one submission.

        Must run on the event-loop thread. Returns the new job's state:
        ``done`` + ``cached`` when the verdict cache already has it,
        ``queued`` otherwise (poll ``GET /jobs/{id}``).
        """
        self.metrics["submitted"] += 1
        self._check_rate(client)
        key = job.key()
        state = JobState(id=self._next_id(), key=key, trace=job.trace,
                         backend=job.backend)

        # cache hit: served without touching the pool
        if self.cache.get_by_key(key) is not None:
            self.metrics["cache_hits"] += 1
            state.status = DONE
            state.cached = True
            state.finished = time.time()
            self._jobs[state.id] = state
            self._prune_jobs()
            return state

        # coalesce onto an identical in-flight replay
        entry = self._inflight.get(key)
        if entry is not None:
            self.metrics["coalesced"] += 1
            state.status = RUNNING
            state.coalesced = True
            entry[1].append(state)
            self._jobs[state.id] = state
            return state

        # backpressure past the high-water mark
        depth = self.pool.queue_depth
        if depth >= self.high_water:
            self.metrics["rejected_backpressure"] += 1
            raise Backpressure(
                f"queue depth {depth} at high-water mark "
                f"{self.high_water}; retry later",
                retry_after=max(1.0, depth * 0.05))

        self.metrics["accepted"] += 1
        self.metrics["replays"] += 1
        future = self.pool.submit(key, job.record(), shard=job.trace)
        self._inflight[key] = (future, [state])
        state.status = RUNNING
        self._jobs[state.id] = state
        loop = asyncio.get_running_loop()
        wrapped = asyncio.wrap_future(future, loop=loop)
        wrapped.add_done_callback(
            lambda fut, key=key, job=job: self._finish(key, job, fut))
        return state

    def _finish(self, key: str, job: ReplayJob, fut: "asyncio.Future"
                ) -> None:
        future, states = self._inflight.pop(key, (None, []))
        try:
            outcome: JobOutcome = fut.result()
        except Exception as exc:  # noqa: BLE001 - shutdown-time cancellation
            outcome = JobOutcome(key, ERROR, None,
                                 f"{type(exc).__name__}: {exc}", 0, 0.0)
        if outcome.ok and outcome.record is not None:
            self.cache.put(job, outcome.record, elapsed=outcome.elapsed)
        else:
            self.metrics["failed"] += 1
        now = time.time()
        for state in states:
            state.status = DONE if outcome.ok else outcome.status
            state.attempts = outcome.attempts
            state.error = outcome.error
            state.elapsed = outcome.elapsed
            state.finished = now
        self._prune_jobs()

    # ------------------------------------------------------------------

    async def drain(self, timeout: float = 60.0) -> None:
        """Wait for all in-flight work to settle (shutdown helper)."""
        deadline = time.monotonic() + timeout
        while self._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
