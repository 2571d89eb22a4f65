"""Scheduler + pool unit tests: rate limiting, backpressure, coalescing,
retry, and (spawn-mode) timeout kill and crash isolation."""

import asyncio
import concurrent.futures
import sys
import threading
import time

import pytest

from repro.campaign import pool as pool_mod
from repro.campaign.pool import CRASHED, ERROR, OK, TIMEOUT, WorkerPool
from repro.serve.scheduler import (
    Backpressure,
    RateLimited,
    Scheduler,
    TokenBucket,
)
from repro.serve.traces import TraceStore
from repro.serve.verdicts import VerdictCache
from repro.serve.worker import ReplayJob
from tests._probejob import make_record, register_probe


@pytest.fixture(autouse=True)
def _probe_kind(monkeypatch):
    """Make the probe job kind resolvable here and in spawn workers."""
    register_probe(monkeypatch)


class TestTokenBucket:
    def test_burst_then_refusal(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        now = time.monotonic()
        assert [bucket.try_acquire(now) for _ in range(3)] == [0.0] * 3
        wait = bucket.try_acquire(now)
        assert 0.0 < wait <= 0.1

    def test_refill_over_time(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        now = time.monotonic()
        assert bucket.try_acquire(now) == 0.0
        assert bucket.try_acquire(now) > 0.0
        assert bucket.try_acquire(now + 0.2) == 0.0  # one token back

    def test_zero_rate_never_refills(self):
        bucket = TokenBucket(rate=0.0, burst=1.0)
        now = time.monotonic()
        assert bucket.try_acquire(now) == 0.0
        assert bucket.try_acquire(now + 1000.0) == 60.0


class TestInlinePool:
    """workers=0: jobs run in the pool's own thread, same retry loop."""

    def _pool(self, **kw):
        pool = WorkerPool(workers=0, **kw)
        pool.start()
        return pool

    def test_success(self):
        pool = self._pool()
        try:
            out = pool.submit("k1", make_record("ok", "x"), "00").result(30)
            assert out.status == OK and out.record["echo"] == "x"
            assert pool.stats["completed"] == 1
        finally:
            pool.stop()

    def test_error_after_retries(self):
        pool = self._pool(retries=2)
        try:
            out = pool.submit("k1", make_record("error", "boom"),
                              "00").result(30)
            assert out.status == ERROR and out.attempts == 3
            assert "boom" in out.error
            assert pool.stats["retries"] == 2
        finally:
            pool.stop()

    def test_cancelled_future_does_not_fail_the_pool(self):
        pool = self._pool()
        try:
            slow = pool.submit("a", make_record("sleep", seconds=0.3), "00")
            pool.submit("b", make_record("ok"), "00").cancel()
            assert slow.result(30).status == OK
            out = pool.submit("c", make_record("ok"), "00").result(30)
            assert out.status == OK
            assert pool.stats["completed"] == 3 and pool.queue_depth == 0
        finally:
            pool.stop()

    def test_submit_after_stop_raises(self):
        pool = WorkerPool(workers=1)
        pool.start()
        pool.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            pool.submit("k", make_record("ok"), "00")

    def test_inline_submit_after_stop_raises(self):
        pool = self._pool()
        pool.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            pool.submit("k", make_record("ok"), "00")

    def test_concurrent_submitters_lose_no_count(self):
        """stats and queue_depth change on the supervisor thread and on
        every submitting thread; a lost update would leave them off."""
        pool = self._pool(retries=1)
        futures = []

        def submit_many(tid):
            for i in range(50):
                behavior = "error" if i % 5 == 0 else "ok"
                futures.append(pool.submit(f"{tid}-{i}",
                                           make_record(behavior)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit_many, args=(t,))
                       for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            outcomes = [f.result(30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
            pool.stop()
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == 400
        assert pool.stats["completed"] == 320
        assert pool.stats["errors"] == 80
        assert pool.stats["retries"] == 80
        assert pool.queue_depth == 0


@pytest.mark.slow
class TestProcessPool:
    """workers>=1: real spawn processes, kill/respawn fault handling."""

    def test_crash_isolated_and_worker_respawned(self):
        pool = WorkerPool(workers=1, retries=0, timeout=60.0)
        pool.start()
        try:
            crash = pool.submit("kc", make_record("crash"), "00")
            out = crash.result(60)
            assert out.status == CRASHED
            assert "died" in out.error
            # the respawned worker keeps serving
            ok = pool.submit("ko", make_record("ok", "alive"), "00")
            assert ok.result(60).record["echo"] == "alive"
            assert pool.stats["crashes"] == 1
            assert pool.stats["respawns"] == 1
        finally:
            pool.stop()

    def test_timeout_kills_and_reports(self):
        pool = WorkerPool(workers=1, retries=0, timeout=0.5)
        pool.start()
        try:
            out = pool.submit("kt", make_record("sleep", seconds=60.0),
                              "00").result(60)
            assert out.status == TIMEOUT
            assert "timed out" in out.error
        finally:
            pool.stop()

    def test_shutdown_fails_pending_futures(self):
        pool = WorkerPool(workers=1, retries=0, timeout=60.0)
        pool.start()
        blocker = pool.submit("kb", make_record("sleep", seconds=60.0),
                              "00")
        queued = pool.submit("kq", make_record("ok"), "00")
        pool.stop()
        for fut in (blocker, queued):
            out = fut.result(5)
            assert out.status == ERROR
            assert "shutting down" in out.error


class _StubWorker:
    """Stands in for a spawned worker that started fine."""

    def __init__(self, ctx, worker_id):
        self.worker_id = worker_id
        self.current = None
        self.busy_seconds = 0.0
        self.stopped = False

    def stop(self):
        self.stopped = True


class TestSpawnFailure:
    """A worker that cannot spawn fails the pool's jobs, never hangs them."""

    def test_queued_job_settles_and_spawned_workers_stop(self, monkeypatch):
        spawned = []

        def spawn(ctx, worker_id):
            if spawned:
                raise OSError("cannot spawn")
            spawned.append(_StubWorker(ctx, worker_id))
            return spawned[-1]

        monkeypatch.setattr(pool_mod, "SpawnWorker", spawn)
        pool = WorkerPool(workers=2, retries=0)
        queued = pool.submit("kq", make_record("ok"), "00")
        pool.start()
        try:
            out = queued.result(10)
            assert out.status == ERROR
            assert "OSError: cannot spawn" in out.error
            assert spawned[0].stopped
            with pytest.raises(RuntimeError, match="stopped"):
                pool.submit("kl", make_record("ok"), "00")
        finally:
            pool.stop()

    def test_scheduler_job_leaves_running(self, monkeypatch, tmp_path):
        submitted = threading.Event()

        def spawn(ctx, worker_id):
            submitted.wait(10)
            raise OSError("cannot spawn")

        monkeypatch.setattr(pool_mod, "SpawnWorker", spawn)
        pool = WorkerPool(workers=1, retries=0)
        sched, _, _ = _scheduler(tmp_path, pool=pool, rate=10_000.0,
                                 burst=10_000.0)

        async def drive():
            pool.start()
            try:
                state = sched.submit("c", _replay_job(tmp_path))
                submitted.set()
                deadline = time.monotonic() + 10
                while (state.status == "running"
                       and time.monotonic() < deadline):
                    await asyncio.sleep(0.01)
                return state
            finally:
                pool.stop()

        state = asyncio.run(drive())
        assert state.status == ERROR
        assert "cannot spawn" in state.error


# ---------------------------------------------------------------------------
# scheduler (asyncio layer, driven with a real loop + inline pool)
# ---------------------------------------------------------------------------

def _replay_job(tmp_path, tag="a", backend="oracle"):
    """A syntactically valid ReplayJob; nothing needs to execute it."""
    path = tmp_path / f"{tag}.hart"
    path.write_bytes(b"")
    return ReplayJob(trace=f"{tag}{'0' * (64 - len(tag))}",
                     backend=backend, trace_path=str(path))


def _scheduler(tmp_path, pool=None, **kw):
    pool = pool or WorkerPool(workers=0)
    cache = VerdictCache(tmp_path / "verdicts")
    return Scheduler(pool, cache, **kw), pool, cache


class TestSchedulerPolicy:
    def test_rate_limit_raises_with_retry_after(self, tmp_path):
        sched, pool, _ = _scheduler(tmp_path, rate=1.0, burst=2.0)

        async def drive():
            pool.start()
            try:
                job = _replay_job(tmp_path)
                # burst of 2 allowed; the cache/pool path does not matter
                # for the limiter, which runs before everything else
                with pytest.raises(RateLimited) as exc_info:
                    for _ in range(3):
                        sched.submit("client-1", job)
                assert exc_info.value.retry_after > 0.0
                # a different client has its own bucket
                sched.submit("client-2", job)
            finally:
                pool.stop()

        asyncio.run(drive())
        assert sched.metrics["rejected_rate_limit"] == 1

    def test_backpressure_past_high_water(self, tmp_path):
        pool = WorkerPool(workers=0)
        sched, _, _ = _scheduler(tmp_path, pool=pool, high_water=1,
                                 rate=10_000.0, burst=10_000.0)

        async def drive():
            pool.start()
            try:
                first = _replay_job(tmp_path, tag="a")
                # keep depth artificially high: the inline executor is
                # fast, so pin the measured depth instead
                sched.submit("c", first)
                pool._depth = 5
                with pytest.raises(Backpressure) as exc_info:
                    sched.submit("c", _replay_job(tmp_path, tag="b"))
                assert exc_info.value.retry_after >= 1.0
            finally:
                pool._depth = 0
                pool.stop()

        asyncio.run(drive())
        assert sched.metrics["rejected_backpressure"] == 1

    def test_identical_submissions_coalesce(self, tmp_path):
        """Concurrent identical jobs share one in-flight replay."""
        pool = WorkerPool(workers=0)
        sched, _, _ = _scheduler(tmp_path, pool=pool, rate=10_000.0,
                                 burst=10_000.0)
        job = _replay_job(tmp_path)

        async def drive():
            pool.start()
            try:
                key = job.key()
                fut = concurrent.futures.Future()
                sched._inflight[key] = (fut, [])
                first = sched.submit("c", job)
                assert first.coalesced
                assert first.status == "running"
                second = sched.submit("c", job)
                assert second.coalesced
                assert len(sched._inflight[key][1]) == 2
                del sched._inflight[key]
            finally:
                pool.stop()

        asyncio.run(drive())
        assert sched.metrics["coalesced"] == 2
        assert sched.metrics["replays"] == 0

    def test_cache_hit_skips_pool(self, tmp_path):
        pool = WorkerPool(workers=0)
        sched, _, cache = _scheduler(tmp_path, pool=pool, rate=10_000.0,
                                     burst=10_000.0)
        job = _replay_job(tmp_path)
        cache.put(job, {"schema": 1, "cached": "verdict"})

        async def drive():
            pool.start()
            try:
                state = sched.submit("c", job)
                assert state.status == "done"
                assert state.cached
            finally:
                pool.stop()

        asyncio.run(drive())
        assert sched.metrics["cache_hits"] == 1
        assert sched.metrics["replays"] == 0

    def test_job_lookup_unknown_id_raises(self, tmp_path):
        sched, _, _ = _scheduler(tmp_path)
        with pytest.raises(KeyError):
            sched.job("j99999999")


class TestTraceStore:
    def test_roundtrip_and_meta(self, tmp_path):
        from repro.harness.trace import dump_binary, record
        store = TraceStore(tmp_path / "traces")
        events = record("SCAN", scale=0.1)
        receipt = store.put_bytes(dump_binary(events))
        assert receipt["digest"] in store
        assert store.meta(receipt["digest"])["events"] == len(events)
        loaded = store.get(receipt["digest"])
        assert len(loaded) == len(events)
        assert len(store) == 1
        # identical re-upload is a no-op landing on the same entry
        assert store.put_bytes(dump_binary(events)) == receipt

    def test_json_and_binary_uploads_share_a_digest(self, tmp_path):
        from repro.harness.trace import dump_binary, record
        store = TraceStore(tmp_path / "traces")
        events = record("SCAN", scale=0.1)
        as_binary = store.put_bytes(dump_binary(events))
        as_json = store.put_bytes(
            "\n".join(e.to_json() for e in events).encode("utf-8"))
        assert as_binary["digest"] == as_json["digest"]
        assert len(store) == 1

    def test_corrupt_upload_rejected(self, tmp_path):
        from repro.common.errors import TraceFormatError
        store = TraceStore(tmp_path / "traces")
        with pytest.raises(TraceFormatError):
            store.put_bytes(b"\xff\xfe not a trace")
        assert len(store) == 0
