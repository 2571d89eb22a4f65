"""Campaign orchestration: cache -> queue -> pool -> store.

Three entry points:

- :func:`run_campaign` drives a declarative grid through the worker pool
  with the resumable state file, skipping anything the store already
  holds. Ctrl-C checkpoints and exits; re-running resumes.
- :func:`session` installs a :class:`CampaignSession` so that *any* code
  calling ``run_benchmark`` (the experiment functions, the CLI) is served
  from the store transparently — cache hit: no simulator is built at
  all; miss: simulate in-process and persist for next time.
- :func:`run_cached` serves a batch of any job kind from an optional
  store and runs the misses on the pool (the fuzz and analyzer drivers).

Both pool drivers run jobs in-process at ``workers <= 1``, unless a
per-job timeout is given: only a separate process can be stopped when
its job overruns, so a timeout at ``workers <= 1`` runs one spawned
worker.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign import queue as cq
from repro.campaign.campaigns import Campaign
from repro.campaign.jobs import Job
from repro.campaign.pool import JobOutcome, WorkerPool
from repro.campaign.progress import ProgressReporter
from repro.campaign.store import ResultStore


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C during a campaign; state was checkpointed before re-raise."""


# ---------------------------------------------------------------------------
# transparent run_benchmark caching
# ---------------------------------------------------------------------------

@dataclass
class CampaignSession:
    """Serves ``run_benchmark`` calls from a result store.

    Installed via :func:`session`; :func:`repro.harness.runner.
    run_benchmark` routes through :meth:`run_call` while active. On a hit
    the RunResult is rebuilt from the stored record (no simulator is
    constructed); on a miss the call executes normally and the lossless
    record is persisted.
    """

    store: ResultStore
    executed: int = 0
    cache_hits: int = 0
    read_only: bool = False

    def run_call(self, *, name: str, detector_config, gpu_config, scale,
                 seed, injection, timing_enabled, verify,
                 overrides: Dict[str, Any]):
        import time

        from repro.campaign.jobs import JobSpecError
        from repro.harness.export import (
            run_result_from_record,
            run_result_record,
        )
        from repro.harness.runner import run_benchmark_direct

        try:
            job = Job.from_call(
                name, detector_config=detector_config,
                gpu_config=gpu_config, scale=scale, seed=seed,
                injection=injection, timing_enabled=timing_enabled,
                verify=verify, overrides=overrides)
        except JobSpecError:
            # un-hashable call (e.g. object-valued override): run it
            # directly, just without caching
            self.executed += 1
            return run_benchmark_direct(
                name, detector_config, gpu_config, scale=scale, seed=seed,
                injection=injection, timing_enabled=timing_enabled,
                verify=verify, **overrides)
        record = self.store.get(job)
        if record is not None:
            self.cache_hits += 1
            return run_result_from_record(record)
        if self.read_only:
            raise LookupError(
                f"cache miss for {job.describe()} in a read-only session")
        start = time.perf_counter()
        res = run_benchmark_direct(name, **job.run_kwargs())
        self.executed += 1
        self.store.put(job, run_result_record(res),
                       elapsed=time.perf_counter() - start)
        return res


@contextlib.contextmanager
def session(store: ResultStore, read_only: bool = False):
    """Context manager: route ``run_benchmark`` through ``store``."""
    from repro.harness import runner

    sess = CampaignSession(store=store, read_only=read_only)
    previous = runner.install_session(sess)
    try:
        yield sess
    finally:
        runner.install_session(previous)


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

def _pool(workers: int, timeout: Optional[float],
          retries: int = 1) -> WorkerPool:
    """The pool for a CLI's ``--workers``: one worker runs in-process,
    unless a timeout needs a process it can kill."""
    if workers <= 1:
        workers = 1 if timeout else 0
    return WorkerPool(workers=workers, timeout=timeout, retries=retries)


@dataclass
class CampaignRun:
    """Outcome of one :func:`run_campaign` invocation."""

    campaign: str
    state: cq.CampaignState
    report: Dict[str, Any]
    outcomes: Dict[str, JobOutcome] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.state.counts()[cq.FAILED]


def run_campaign(campaign: Campaign,
                 store: ResultStore,
                 scale: float = 1.0,
                 workers: int = 1,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 state_path=None,
                 retry_failed: bool = False,
                 progress: Optional[ProgressReporter] = None) -> CampaignRun:
    """Run one campaign to completion (or resume a stopped one).

    Cells already in the store count as cache hits and never reach the
    pool. ``retry_failed`` re-queues cells a previous invocation marked
    failed; otherwise they stay failed and are only reported.
    """
    labeled = campaign.jobs(scale)
    jobs = {job.key(): job for _, job in labeled}
    labels = {job.key(): label for label, job in labeled}

    if state_path is None:
        state_path = store.root / f"state-{campaign.name}.json"
    state = cq.CampaignState.load(state_path, campaign.name)
    state.sync_jobs([(label, key) for key, label in labels.items()])

    if progress is None:
        progress = ProgressReporter(total=len(jobs), quiet=True)
    progress.total = len(jobs)

    # cache pass: anything already stored is done, whatever the state
    # says. Full get() rather than an existence check: a corrupt entry is
    # evicted here and its cell re-queued instead of being trusted.
    to_run: Dict[str, Job] = {}
    for key, job in jobs.items():
        js = state.jobs[key]
        if js.status == cq.FAILED and not retry_failed:
            continue
        if store.get(job) is not None:
            if js.status != cq.DONE:
                state.mark_done(key, cached=True)
            progress.job_cached(labels[key])
        else:
            state.requeue(key)
            to_run[key] = job
    state.save()

    pool = _pool(workers, timeout, retries)

    def on_dispatch(key: str, worker_id: int, attempt: int) -> None:
        state.mark_running(key)
        state.save()
        progress.job_started(labels[key], worker_id, attempt)

    def on_outcome(outcome: JobOutcome) -> None:
        if outcome.ok:
            store.put(jobs[outcome.key], outcome.record,
                      elapsed=outcome.elapsed)
            state.mark_done(outcome.key, elapsed=outcome.elapsed)
        else:
            state.mark_failed(outcome.key,
                              f"{outcome.status}: {outcome.error}")
        state.save()
        progress.job_finished(labels[outcome.key], outcome.ok,
                              outcome.elapsed, outcome.error)

    outcomes: Dict[str, JobOutcome] = {}
    try:
        outcomes = pool.run(to_run, on_dispatch=on_dispatch,
                            on_outcome=on_outcome)
    except KeyboardInterrupt:
        # demote any running jobs and checkpoint so a re-run resumes here
        for js in state.jobs.values():
            if js.status == cq.RUNNING:
                js.status = cq.PENDING
        state.save()
        raise CampaignInterrupted(
            f"campaign {campaign.name!r} interrupted; state saved to "
            f"{state_path}") from None

    report = progress.report(campaign.name, pool.worker_busy_seconds)
    report["state_path"] = str(state_path)
    report["store_root"] = str(store.root)
    report["store_entries"] = len(store)
    return CampaignRun(campaign=campaign.name, state=state, report=report,
                       outcomes=outcomes)


# ---------------------------------------------------------------------------
# cached batches
# ---------------------------------------------------------------------------

@dataclass
class CachedBatch:
    """Outcome of one :func:`run_cached` call."""

    records: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: ``(job, outcome)`` of every job that failed, in settle order
    failures: List[Tuple[Any, JobOutcome]] = field(default_factory=list)
    cache_hits: int = 0


def run_cached(jobs: Dict[str, Any], schema: int,
               cache_dir: Optional[str] = None,
               workers: int = 1,
               timeout: Optional[float] = None,
               progress: Optional[Callable[[Any, JobOutcome], None]] = None
               ) -> CachedBatch:
    """Result records of ``jobs``: stored ones, then the pool's.

    A stored record counts only when its ``schema`` field is ``schema``;
    every other job runs on the pool, and each that succeeds is stored
    when there is a ``cache_dir``. ``progress(job, outcome)`` fires for
    every job the pool settles.
    """
    store = ResultStore(cache_dir) if cache_dir else None
    batch = CachedBatch()
    to_run: Dict[str, Any] = {}
    for key, job in jobs.items():
        cached = store.get(job) if store is not None else None
        if cached is not None and cached.get("schema") == schema:
            batch.records[key] = cached
            batch.cache_hits += 1
        else:
            to_run[key] = job

    def on_outcome(outcome: JobOutcome) -> None:
        job = to_run[outcome.key]
        if outcome.ok:
            batch.records[outcome.key] = outcome.record
            if store is not None:
                store.put(job, outcome.record, outcome.elapsed)
        else:
            batch.failures.append((job, outcome))
        if progress:
            progress(job, outcome)

    _pool(workers, timeout).run(to_run, on_outcome=on_outcome)
    return batch
