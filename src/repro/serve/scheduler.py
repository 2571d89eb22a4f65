"""Job scheduling: sharded worker pool, backpressure, rate limiting.

Three layers, mirroring the campaign engine's fault semantics but shaped
for a long-running service instead of a batch run:

- :class:`ShardedWorkerPool` keeps N persistent ``spawn`` worker
  processes alive (reusing :mod:`repro.campaign.pool`'s worker loop) and
  streams jobs to them as they arrive. Jobs shard by trace digest, so
  all verdicts for one trace land on one worker — deterministic
  affinity, no two workers ever replaying the same upload concurrently.
  The supervisor thread enforces per-job wall-clock timeouts (kill +
  respawn), bounded retries, and crash isolation: a worker that dies
  mid-job fails that job, never the service. ``workers=0`` degrades to
  an in-process thread executor with the same retry semantics (no
  timeout kill or crash isolation without a process boundary).

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
import queue as stdqueue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.jobs import execute_record
from repro.campaign.pool import (
    CRASHED,
    ERROR,
    OK,
    TIMEOUT,
    JobOutcome,
    SpawnWorker,
)
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
# worker pool
# ---------------------------------------------------------------------------

@dataclass
class _Task:
    key: str
    record: Dict[str, Any]
    shard: int
    future: Future
    attempts: int = 0
    last_elapsed: float = 0.0


class ShardedWorkerPool:
    """Persistent spawn workers with shard-by-digest dispatch."""

    def __init__(self, workers: int = 2,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 start_method: str = "spawn") -> None:
        self.workers = max(0, int(workers))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.start_method = start_method
        self._inbox: "stdqueue.Queue[Optional[_Task]]" = stdqueue.Queue()
        self._depth = 0
        self._depth_lock = threading.Lock()
        #: orders submissions against stopping: a task put on the inbox
        #: before ``_stop`` is set is always drained by the supervisor
        self._submit_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self.stats = {"completed": 0, "errors": 0, "timeouts": 0,
                      "crashes": 0, "retries": 0, "respawns": 0}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self.workers == 0:
            self._executor = ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="serve-inline")
            return
        self._thread = threading.Thread(target=self._supervise,
                                        name="serve-pool", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        with self._submit_lock:
            self._stop.set()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._thread is not None:
            self._inbox.put(None)
            self._thread.join(timeout=30)
            self._thread = None

    # -- submission ----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._depth_lock:
            return self._depth

    def submit(self, key: str, record: Dict[str, Any],
               shard_hint: str) -> "Future[JobOutcome]":
        """Enqueue one job record; the future resolves to its outcome."""
        future: "Future[JobOutcome]" = Future()
        with self._submit_lock:
            if self._stop.is_set():
                raise RuntimeError("worker pool is stopped")
            with self._depth_lock:
                self._depth += 1
            future.add_done_callback(self._on_done)
            if self._executor is not None:
                self._executor.submit(self._run_inline, key, record, future)
            else:
                shard = int(shard_hint[:16] or "0", 16) if shard_hint else 0
                self._inbox.put(_Task(key, record, shard, future))
        return future

    def _on_done(self, future: "Future[JobOutcome]") -> None:
        with self._depth_lock:
            self._depth -= 1
        try:
            outcome = future.result()
        except Exception:
            self.stats["errors"] += 1
            return
        if outcome.ok:
            self.stats["completed"] += 1
        elif outcome.status == TIMEOUT:
            self.stats["timeouts"] += 1
        elif outcome.status == CRASHED:
            self.stats["crashes"] += 1
        else:
            self.stats["errors"] += 1

    # -- inline mode (workers == 0) ------------------------------------

    def _run_inline(self, key: str, record: Dict[str, Any],
                    future: "Future[JobOutcome]") -> None:
        attempts = 0
        while True:
            attempts += 1
            start = time.perf_counter()
            try:
                result = execute_record(record)
                future.set_result(JobOutcome(
                    key, OK, result, None, attempts,
                    time.perf_counter() - start))
                return
            except Exception as exc:  # noqa: BLE001 - crash isolation
                if attempts <= self.retries:
                    self.stats["retries"] += 1
                    continue
                future.set_result(JobOutcome(
                    key, ERROR, None, f"{type(exc).__name__}: {exc}",
                    attempts, time.perf_counter() - start))
                return

    # -- process mode supervisor ---------------------------------------

    def _supervise(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context(self.start_method)
        result_q = ctx.Queue()
        pool: List[SpawnWorker] = []
        backlog: List[List[_Task]] = [[] for _ in range(self.workers)]
        active: Dict[int, _Task] = {}
        failure = "service shutting down"

        def settle(wid: int, task: _Task, status: str, record, error,
                   elapsed: float) -> None:
            task.last_elapsed = elapsed
            if status != OK and task.attempts <= self.retries:
                self.stats["retries"] += 1
                backlog[task.shard % self.workers].append(task)
                return
            task.future.set_result(JobOutcome(
                task.key, status, record, error, task.attempts, elapsed))

        def respawn(i: int) -> None:
            dead = pool[i]
            dead.kill()
            replacement = SpawnWorker(ctx, dead.worker_id, result_q)
            replacement.busy_seconds = dead.busy_seconds
            pool[i] = replacement
            self.stats["respawns"] += 1

        try:
            for wid in range(self.workers):
                pool.append(SpawnWorker(ctx, wid, result_q))
            while not self._stop.is_set():
                # 1. pull new submissions into their shard's backlog
                try:
                    item = self._inbox.get(timeout=0.02)
                    while item is not None:
                        backlog[item.shard % self.workers].append(item)
                        item = self._inbox.get_nowait()
                except stdqueue.Empty:
                    pass

                # 2. dispatch to idle workers
                for i, worker in enumerate(pool):
                    if worker.current is None and backlog[i]:
                        task = backlog[i].pop(0)
                        task.attempts += 1
                        active[i] = task
                        worker.dispatch(task.key, task.record, self.timeout)

                # 3. drain results
                try:
                    wid, key, status, record, error, elapsed = \
                        result_q.get(timeout=0.02)
                except stdqueue.Empty:
                    pass
                else:
                    idx = next((i for i, w in enumerate(pool)
                                if w.worker_id == wid), None)
                    if idx is not None and pool[idx].current == key:
                        task = active.pop(idx)
                        pool[idx].finish()
                        settle(wid, task, status, record, error, elapsed)
                    continue  # drain before health checks

                # 4. health: hung or dead workers
                for i, worker in enumerate(pool):
                    if worker.current is None:
                        continue
                    task = active.get(i)
                    if task is None:  # pragma: no cover - defensive
                        continue
                    if worker.timed_out():
                        worker.finish()
                        respawn(i)
                        active.pop(i, None)
                        settle(i, task, TIMEOUT, None,
                               f"timed out after {self.timeout:.1f}s",
                               self.timeout or 0.0)
                    elif not worker.process.is_alive():
                        exitcode = worker.process.exitcode
                        worker.finish()
                        respawn(i)
                        active.pop(i, None)
                        settle(i, task, CRASHED, None,
                               f"worker process died (exit code {exitcode})",
                               0.0)
        except Exception as exc:  # noqa: BLE001 - e.g. a worker cannot spawn
            failure = f"worker pool failed: {type(exc).__name__}: {exc}"
            with self._submit_lock:
                self._stop.set()  # later submissions raise, never hang
        finally:
            for worker in pool:
                worker.stop()
            # fail anything still owed an answer: futures must resolve
            leftovers = list(active.values())
            for shard_tasks in backlog:
                leftovers.extend(shard_tasks)
            while True:
                try:
                    item = self._inbox.get_nowait()
                except stdqueue.Empty:
                    break
                if item is not None:
                    leftovers.append(item)
            for task in leftovers:
                if not task.future.done():
                    task.future.set_result(JobOutcome(
                        task.key, ERROR, None, failure, task.attempts, 0.0))
            result_q.close()
            result_q.join_thread()


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

    def __init__(self, pool: ShardedWorkerPool, cache: VerdictCache,
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
        future = self.pool.submit(key, job.record(), shard_hint=job.trace)
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
