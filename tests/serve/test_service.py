"""End-to-end service tests against a live in-process endpoint.

A module-scoped :class:`ServerThread` (inline workers) carries the fast
lifecycle tests; policy tests (rate limit, backpressure) and the spawn
crash test boot their own narrowly-configured instances.
"""

import json
import threading

import pytest

from repro.harness.trace import dump_binary, record
from repro.serve.app import ServerThread, ServiceConfig
from repro.serve.backends import canonical_json, trace_digest, verdict_record
from repro.serve.client import JobFailed, ServiceClient, ServiceError


@pytest.fixture(scope="module")
def events():
    return record("SCAN", scale=0.1)


@pytest.fixture(scope="module")
def trace_bytes(events):
    return dump_binary(events)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(port=0, store=str(tmp_path_factory.mktemp(
        "serve-store")), workers=0, rate=10_000.0, burst=10_000.0)
    with ServerThread(config) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, client_id="pytest")


class TestLifecycle:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["service"] == "repro-serve"

    def test_backends_listing(self, client):
        names = {b["name"] for b in client.backends()["backends"]}
        assert {"haccrg-bloom", "oracle", "static"} <= names

    def test_upload_then_submit_then_verdict(self, client, events,
                                             trace_bytes):
        receipt = client.upload(trace_bytes)
        assert receipt["digest"] == trace_digest(events)
        assert receipt["events"] == len(events)

        state = client.submit(receipt["digest"], "haccrg-word")
        if state["status"] != "done":
            state = client.wait(state["job"])
        verdict = client.verdict(state["verdict"])
        assert verdict["trace"] == receipt["digest"]
        assert verdict["backend"] == "haccrg-word"
        assert verdict["result"]["distinct"] > 0

    def test_job_state_is_pollable(self, client, trace_bytes):
        receipt = client.upload(trace_bytes)
        state = client.submit(receipt["digest"], "oracle")
        polled = client.job(state["job"])
        assert polled["job"] == state["job"]
        assert polled["backend"] == "oracle"

    def test_second_submission_is_a_cache_hit(self, server, client,
                                              trace_bytes):
        receipt = client.upload(trace_bytes)
        first = client.submit(receipt["digest"], "haccrg-bloom")
        if first["status"] != "done":
            client.wait(first["job"])
        replays_before = client.metrics()["jobs_replays"]
        second = client.submit(receipt["digest"], "haccrg-bloom")
        assert second["status"] == "done"
        assert second["cached"] is True
        # the acceptance gate: a repeat submission never replays
        assert client.metrics()["jobs_replays"] == replays_before

    def test_verdict_survives_restart(self, server, client, trace_bytes):
        """Stores are on disk: a fresh service over the same root serves
        previously computed verdicts as cache hits."""
        receipt = client.upload(trace_bytes)
        state = client.submit(receipt["digest"], "haccrg-word")
        if state["status"] != "done":
            state = client.wait(state["job"])
        body = client.verdict_bytes(state["verdict"])

        config = ServiceConfig(port=0, store=server.config.store,
                               workers=0, rate=10_000.0, burst=10_000.0)
        with ServerThread(config) as second_srv:
            fresh = ServiceClient(second_srv.url)
            again = fresh.submit(receipt["digest"], "haccrg-word")
            assert again["status"] == "done" and again["cached"]
            assert fresh.verdict_bytes(again["verdict"]) == body


class TestErrors:
    def test_corrupt_upload_is_structured_400(self, client, trace_bytes):
        with pytest.raises(ServiceError) as exc_info:
            client.upload(trace_bytes[:-3])   # cuts the last record short
        assert exc_info.value.status == 400
        assert exc_info.value.payload["error"] == "trace-format"
        assert "truncated" in exc_info.value.payload["message"]

    def test_empty_upload_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.upload(b"")
        assert exc_info.value.status == 400

    def test_unknown_backend_400(self, client, trace_bytes):
        receipt = client.upload(trace_bytes)
        with pytest.raises(ServiceError) as exc_info:
            client.submit(receipt["digest"], "definitely-not-a-backend")
        assert exc_info.value.status == 400
        assert exc_info.value.payload["error"] == "unknown-backend"

    def test_unknown_trace_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.submit("f" * 64, "oracle")
        assert exc_info.value.status == 404
        assert exc_info.value.payload["error"] == "unknown-trace"

    def test_static_without_program_400(self, client, trace_bytes):
        receipt = client.upload(trace_bytes)
        with pytest.raises(ServiceError) as exc_info:
            client.submit(receipt["digest"], "static")
        assert exc_info.value.status == 400
        assert exc_info.value.payload["error"] == "program-required"

    def test_unknown_routes_404(self, client):
        for method, path in (("GET", "/nope"), ("POST", "/nope")):
            status, _, _ = client.request(method, path)
            assert status == 404
        status, _, _ = client.request("DELETE", "/traces")
        assert status == 405

    def test_bad_json_job_400(self, client):
        status, _, payload = client.request("POST", "/jobs",
                                            body=b"{not json")
        assert status == 400
        assert json.loads(payload)["error"] == "bad-request"

    def test_unknown_verdict_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.verdict("0" * 64)
        assert exc_info.value.status == 404


class TestByteIdentity:
    def test_service_verdict_equals_cli_replay_bytes(self, client, events,
                                                     trace_bytes):
        """The acceptance gate: verdicts are byte-identical whether
        computed through the service or `repro trace replay --backend`."""
        from repro.serve.backends import get_backend

        receipt = client.upload(trace_bytes)
        for name in ("haccrg-bloom", "haccrg-full", "oracle"):
            state = client.submit(receipt["digest"], name)
            if state["status"] != "done":
                state = client.wait(state["job"])
            service_bytes = client.verdict_bytes(state["verdict"])
            # exactly what _cmd_trace_replay --backend prints (sans \n)
            cli_bytes = canonical_json(verdict_record(
                trace_digest(events), get_backend(name),
                events)).encode("utf-8")
            assert service_bytes == cli_bytes

    def test_static_backend_end_to_end(self, client):
        from repro.fuzz.generator import generate_program
        from repro.fuzz.program import record_program

        program = generate_program(3)
        ev = record_program(program)
        receipt = client.upload(dump_binary(ev))
        state = client.submit(receipt["digest"], "static",
                              program=program.record())
        if state["status"] != "done":
            state = client.wait(state["job"])
        verdict = client.verdict(state["verdict"])
        assert verdict["result"]["cross_check"]["contradictions"] == []


class TestCoalescing:
    def test_concurrent_identical_submissions_share_one_replay(
            self, tmp_path, trace_bytes):
        """N clients racing on one (trace, backend) produce one replay."""
        config = ServiceConfig(port=0, store=str(tmp_path / "store"),
                               workers=0, rate=10_000.0, burst=10_000.0)
        with ServerThread(config) as srv:
            client = ServiceClient(srv.url)
            receipt = client.upload(trace_bytes)
            results, errors = [], []

            def submit_and_wait():
                try:
                    c = ServiceClient(srv.url)
                    state = c.submit(receipt["digest"], "haccrg-word")
                    if state["status"] != "done":
                        state = c.wait(state["job"])
                    results.append(c.verdict_bytes(state["verdict"]))
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append(exc)

            threads = [threading.Thread(target=submit_and_wait)
                       for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            metrics = client.metrics()

        assert not errors
        assert len(results) == 6
        assert len(set(results)) == 1       # everyone got the same bytes
        # one replay total; the rest were coalesced or cache hits
        assert metrics["jobs_replays"] == 1
        assert metrics["jobs_coalesced"] + metrics["jobs_cache_hits"] == 5


class TestPolicy:
    def test_rate_limit_429_with_retry_after(self, tmp_path, trace_bytes):
        config = ServiceConfig(port=0, store=str(tmp_path / "store"),
                               workers=0, rate=0.001, burst=2.0)
        with ServerThread(config) as srv:
            client = ServiceClient(srv.url, client_id="limited")
            receipt = client.upload(trace_bytes)
            # the upload consumed no tokens; the burst of 2 job
            # submissions is accepted, the third gets 429
            client.submit(receipt["digest"], "oracle", retry_429=False)
            client.submit(receipt["digest"], "oracle", retry_429=False)
            with pytest.raises(ServiceError) as exc_info:
                client.submit(receipt["digest"], "oracle",
                              retry_429=False)
            assert exc_info.value.status == 429
            assert exc_info.value.payload["error"] == "rate-limited"
            # the polite path rides it out via Retry-After... eventually;
            # here just assert the header is present and positive
            status, headers, _ = client.request(
                "POST", "/jobs",
                body=json.dumps({"trace": receipt["digest"],
                                 "backend": "oracle"}).encode())
            assert status == 429
            assert float(headers["retry-after"]) > 0.0

    def test_sustained_overload_yields_429_and_no_lost_jobs(
            self, tmp_path, trace_bytes):
        """The backpressure acceptance gate: past the high-water mark
        submissions are rejected with 429 + Retry-After; every accepted
        job still settles; the service never crashes."""
        config = ServiceConfig(port=0, store=str(tmp_path / "store"),
                               workers=0, high_water=1,
                               rate=10_000.0, burst=10_000.0)
        with ServerThread(config) as srv:
            client = ServiceClient(srv.url)
            receipt = client.upload(trace_bytes)
            # hold the measured queue depth above the high-water mark
            pool = srv.service.pool
            with pool._lock:
                pool._depth += 5
            try:
                with pytest.raises(ServiceError) as exc_info:
                    client.submit(receipt["digest"], "oracle",
                                  retry_429=False)
                assert exc_info.value.status == 429
                assert exc_info.value.payload["error"] == "backpressure"
            finally:
                with pool._lock:
                    pool._depth -= 5
            # pressure released: the same submission is accepted and
            # settles; nothing was lost or wedged
            state = client.submit(receipt["digest"], "oracle")
            if state["status"] != "done":
                state = client.wait(state["job"])
            assert state["status"] == "done"
            assert client.healthz()["status"] == "ok"
            assert client.metrics()["jobs_rejected_backpressure"] == 1


@pytest.mark.slow
class TestWorkerCrashIsolation:
    def test_worker_death_fails_the_job_not_the_service(self, tmp_path,
                                                        trace_bytes):
        """A replay worker that dies yields a crashed job state; the
        service stays up, respawns the worker, and keeps serving."""
        import multiprocessing
        import time as time_mod

        config = ServiceConfig(port=0, store=str(tmp_path / "store"),
                               workers=1, retries=0, timeout=60.0,
                               rate=10_000.0, burst=10_000.0)
        with ServerThread(config) as srv:
            client = ServiceClient(srv.url)
            receipt = client.upload(trace_bytes)

            # the pool worker is a child process of this test process
            deadline = time_mod.monotonic() + 30
            while time_mod.monotonic() < deadline:
                workers = [p for p in multiprocessing.active_children()
                           if p.daemon]
                if workers:
                    break
                time_mod.sleep(0.05)
            assert workers, "pool worker never spawned"
            workers[0].terminate()

            # the next job is dispatched to the dead worker: the
            # supervisor detects the death, fails the job as crashed,
            # and respawns — the service itself never goes down
            state = client.submit(receipt["digest"], "oracle")
            with pytest.raises(JobFailed) as exc_info:
                client.wait(state["job"], timeout=120)
            assert exc_info.value.state["status"] == "crashed"
            assert "died" in exc_info.value.state["error"]
            assert client.healthz()["status"] == "ok"

            # the respawned worker serves the retried submission
            retry = client.submit(receipt["digest"], "oracle")
            if retry["status"] != "done":
                retry = client.wait(retry["job"], timeout=120)
            assert retry["status"] == "done"
            assert client.metrics()["pool_crashes"] == 1
            assert client.metrics()["pool_respawns"] == 1
