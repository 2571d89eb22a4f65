"""Worker-pool fault handling: retries, crash isolation, timeouts.

The expensive parts (spawning real worker processes) are concentrated in
a handful of tests; each uses the smallest grid that exercises the path.
A "bad" job is one whose overrides name a parameter the benchmark builder
does not accept — hashable (so it reaches the worker) but guaranteed to
raise TypeError inside ``execute``. The contracts that need a job to
crash its worker, or many cheap jobs, use the probe kind
(``tests/_probejob.py``).
"""

import multiprocessing
import os

import pytest

from repro.campaign import pool as pool_mod
from repro.campaign.jobs import Job
from repro.campaign.pool import CRASHED, ERROR, OK, TIMEOUT, WorkerPool
from repro.common.config import DetectionMode, HAccRGConfig
from tests._probejob import ProbeJob, make_record, register_probe

WORD = HAccRGConfig(mode=DetectionMode.FULL, shared_granularity=4,
                    global_granularity=4)


def _good(seed=0):
    return Job.from_call("SCAN", WORD, scale=0.1, seed=seed,
                         timing_enabled=False)


def _bad(seed=0):
    return Job.from_call("SCAN", WORD, scale=0.1, seed=seed,
                         timing_enabled=False,
                         overrides={"no_such_parameter": 1})


def _keyed(*jobs):
    return {job.key(): job for job in jobs}


class TestSerial:
    def test_success(self):
        job = _good()
        outcomes = WorkerPool(workers=0).run(_keyed(job))
        out = outcomes[job.key()]
        assert out.status == OK and out.attempts == 1
        assert out.record["name"] == "SCAN"

    def test_failure_after_n_retries(self):
        job = _bad()
        dispatches = []
        outcomes = WorkerPool(workers=0, retries=2).run(
            _keyed(job),
            on_dispatch=lambda key, wid, attempt: dispatches.append(attempt))
        out = outcomes[job.key()]
        assert out.status == ERROR
        assert out.attempts == 3  # retries=2 means three attempts
        assert dispatches == [1, 2, 3]
        assert "TypeError" in out.error

    def test_one_failure_does_not_stop_the_rest(self):
        jobs = _keyed(_bad(), _good(1), _good(2))
        outcomes = WorkerPool(workers=0, retries=0).run(jobs)
        statuses = {key: out.status for key, out in outcomes.items()}
        assert sorted(statuses.values()) == [ERROR, OK, OK]

    def test_empty_job_dict(self):
        assert WorkerPool(workers=0).run({}) == {}


@pytest.mark.slow
class TestParallel:
    def test_mixed_grid_completes_with_failures_recorded(self):
        bad = _bad()
        jobs = _keyed(bad, _good(1), _good(2), _good(3))
        pool = WorkerPool(workers=2, retries=1)
        terminal = []
        outcomes = pool.run(jobs, on_outcome=lambda o: terminal.append(o.key))
        assert len(outcomes) == 4
        assert sorted(terminal) == sorted(jobs)
        assert outcomes[bad.key()].status == ERROR
        assert outcomes[bad.key()].attempts == 2
        assert "TypeError" in outcomes[bad.key()].error
        oks = [o for o in outcomes.values() if o.key != bad.key()]
        assert all(o.status == OK for o in oks)
        assert all(o.record["name"] == "SCAN" for o in oks)
        assert len(pool.worker_busy_seconds) == 2

    def test_timeout_kills_and_reports(self):
        # the deadline starts at dispatch; 50 ms is far below worker
        # startup + import, so the job deterministically times out and
        # the supervisor must kill + respawn rather than hang
        job = _good()
        pool = WorkerPool(workers=2, timeout=0.05, retries=0)
        outcomes = pool.run(_keyed(job))
        out = outcomes[job.key()]
        assert out.status == TIMEOUT
        assert out.attempts == 1
        assert "timed out" in out.error

    def test_timeout_retry_then_terminal(self):
        job = _good()
        dispatches = []
        pool = WorkerPool(workers=2, timeout=0.05, retries=1)
        outcomes = pool.run(
            _keyed(job),
            on_dispatch=lambda key, wid, attempt: dispatches.append(attempt))
        assert outcomes[job.key()].status == TIMEOUT
        assert outcomes[job.key()].attempts == 2
        assert dispatches == [1, 2]


class TestProbes:
    """Fault and interrupt contracts of ``run()``, with probe jobs."""

    @pytest.fixture(autouse=True)
    def _probe_kind(self, monkeypatch):
        register_probe(monkeypatch)

    def test_inline_runs_in_this_process(self):
        outcomes = WorkerPool(workers=0).run({"k": ProbeJob("ok", "x")})
        assert outcomes["k"].record == {"ok": True, "echo": "x",
                                        "pid": os.getpid()}

    @pytest.mark.slow
    def test_crash_isolated_and_worker_respawned(self):
        pool = WorkerPool(workers=2, retries=1, timeout=60.0)
        jobs = {"crash": ProbeJob("crash")}
        jobs.update((f"ok{i}", ProbeJob("ok", str(i))) for i in range(4))
        outcomes = pool.run(jobs)
        crash = outcomes["crash"]
        assert crash.status == CRASHED and crash.attempts == 2
        assert "died" in crash.error
        assert all(outcomes[f"ok{i}"].record["echo"] == str(i)
                   for i in range(4))
        assert pool.stats["crashes"] == 1 and pool.stats["respawns"] == 2
        assert pool.queue_depth == 0
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    def test_spawn_failure_settles_every_job(self, monkeypatch):
        spawned = []

        def spawn(ctx, worker_id):
            if spawned:
                raise OSError("cannot spawn")
            spawned.append(real_spawn(ctx, worker_id))
            return spawned[-1]

        real_spawn = pool_mod.SpawnWorker
        monkeypatch.setattr(pool_mod, "SpawnWorker", spawn)
        jobs = {f"k{i}": ProbeJob("ok") for i in range(3)}
        settled = []
        outcomes = WorkerPool(workers=2, retries=1).run(
            jobs, on_outcome=settled.append)
        assert sorted(outcomes) == sorted(jobs)
        assert len(settled) == 3
        for out in outcomes.values():
            assert out.status == ERROR
            assert out.error.startswith("worker pool failed: OSError")
        assert not spawned[0].process.is_alive()
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    def test_respawn_failure_settles_the_retried_job(self, monkeypatch):
        spawns = []

        def spawn(ctx, worker_id):
            spawns.append(worker_id)
            if len(spawns) > 2:
                raise OSError("cannot respawn")
            return real_spawn(ctx, worker_id)

        real_spawn = pool_mod.SpawnWorker
        monkeypatch.setattr(pool_mod, "SpawnWorker", spawn)
        jobs = {"crash": ProbeJob("crash")}
        jobs.update((f"sleep{i}", ProbeJob("sleep", seconds=30.0))
                    for i in range(3))
        settled = []
        pool = WorkerPool(workers=2, retries=1, timeout=60.0)
        outcomes = pool.run(jobs, on_outcome=settled.append)
        assert sorted(outcomes) == sorted(jobs)
        assert len(settled) == 4
        for out in outcomes.values():
            assert out.status == ERROR
            assert out.error.startswith("worker pool failed: OSError")
        assert outcomes["crash"].attempts == 1
        assert pool.queue_depth == 0
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    def test_interrupt_leaves_unfinished_jobs_without_outcome(self):
        seen = []

        def on_outcome(outcome):
            seen.append(outcome.key)
            raise KeyboardInterrupt

        jobs = {f"k{i}": ProbeJob("ok", str(i)) for i in range(4)}
        with pytest.raises(KeyboardInterrupt):
            WorkerPool(workers=2).run(jobs, on_outcome=on_outcome)
        assert len(seen) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    def test_sharded_jobs_stay_on_one_worker(self):
        pool = WorkerPool(workers=2, retries=0)
        pool.start()
        try:
            pids = {shard: {pool.submit(f"{shard}-{i}", make_record("ok"),
                                        shard).result(60).record["pid"]
                            for i in range(4)}
                    for shard in ("00", "01")}
        finally:
            pool.stop()
        assert all(len(p) == 1 for p in pids.values())
        assert pids["00"] != pids["01"]
        assert pool.stats["completed"] == 8 and pool.queue_depth == 0
