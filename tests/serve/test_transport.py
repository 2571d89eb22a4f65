"""The client transport: one keep-alive connection, digest-first
uploads, and long-poll job waits (``GET /jobs/{id}?wait=S``)."""

import gc
import threading
import time
import warnings

import pytest

from repro.harness.trace import dump_binary, record
from repro.serve import worker as worker_mod
from repro.serve.app import ServerThread, ServiceConfig
from repro.serve.client import ServiceClient, ServiceError


@pytest.fixture(scope="module")
def events():
    return record("SCAN", scale=0.1)


@pytest.fixture(scope="module")
def trace_bytes(events):
    return dump_binary(events)


def _config(tmp_path, **kw):
    kw = {"port": 0, "store": str(tmp_path / "store"), **kw}
    return ServiceConfig(workers=0, rate=10_000.0, burst=10_000.0, **kw)


@pytest.fixture()
def gate(monkeypatch):
    """Inline replays block until the test sets the returned event."""
    opened = threading.Event()
    real = worker_mod.execute_replay_record

    def gated(rec):
        opened.wait(60)
        return real(rec)

    monkeypatch.setattr(worker_mod, "execute_replay_record", gated)
    yield opened
    opened.set()


class TestKeepAlive:
    def test_requests_share_one_connection(self, tmp_path):
        with ServerThread(_config(tmp_path)) as srv, \
                ServiceClient(srv.url) as client:
            client.healthz()
            local = client._conn.sock.getsockname()
            client.backends()
            client.metrics()
            assert client._conn.sock.getsockname() == local
        assert client._conn is None

    def test_recovers_after_the_server_closes_on_a_400(self, tmp_path):
        with ServerThread(_config(tmp_path, max_body=1024)) as srv, \
                ServiceClient(srv.url) as client:
            client.healthz()                     # the connection is reused
            status, headers, _ = client.request("POST", "/traces",
                                                b"x" * 4096)
            assert status == 400
            assert headers["connection"] == "close"
            assert client._conn is None          # dropped, not reused
            assert client.healthz()["status"] == "ok"

    def test_recovers_after_a_server_restart(self, tmp_path):
        first = ServerThread(_config(tmp_path)).start()
        try:
            with ServiceClient(first.url) as client:
                client.healthz()
                first.stop()
                # same port, same store: the kept connection is now dead
                with ServerThread(_config(tmp_path, port=first.port)) \
                        as second:
                    assert second.port == first.port
                    assert client.healthz()["status"] == "ok"
        finally:
            first.stop()

    def test_closed_clients_leak_no_socket(self, tmp_path, trace_bytes):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with ServerThread(_config(tmp_path)) as srv:
                with ServiceClient(srv.url) as client:
                    client.detect(trace_bytes, "haccrg-word")
                with ServiceClient(srv.url) as client:
                    client.healthz()
                    client.close()
                    client.healthz()             # reopens, then closes
            gc.collect()
        leaks = [w for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert leaks == []


class TestDigestFirstUpload:
    def test_repeat_upload_posts_no_body(self, tmp_path, events,
                                         trace_bytes):
        with ServerThread(_config(tmp_path)) as srv, \
                ServiceClient(srv.url) as client:
            first = client.upload(trace_bytes)
            assert client.metrics()["serve_uploads"] == 1
            assert client.upload(trace_bytes) == first
            counts = client.metrics()
            assert counts["serve_uploads"] == 1
            assert counts["serve_uploads_known"] == 0
            # a JSON-lines upload of the same trace hashes to no stored
            # name, so it is sent and lands on the same digest
            as_json = "\n".join(e.to_json() for e in events).encode()
            assert client.upload(as_json) == first
            assert client.metrics()["serve_uploads"] == 2


class TestLongPoll:
    def _submit(self, client, trace_bytes):
        digest = client.upload(trace_bytes)["digest"]
        state = client.submit(digest, "haccrg-word")
        assert state["status"] == "running"
        return state["job"]

    def test_hold_returns_when_the_job_settles(self, tmp_path, gate,
                                               trace_bytes):
        with ServerThread(_config(tmp_path)) as srv, \
                ServiceClient(srv.url) as client:
            job = self._submit(client, trace_bytes)
            threading.Timer(0.3, gate.set).start()
            start = time.monotonic()
            state = client.job(job + "?wait=30")
            held = time.monotonic() - start
            assert state["status"] == "done"
            assert 0.25 <= held < 15.0

    def test_expired_hold_returns_the_unsettled_state(self, tmp_path,
                                                      gate, trace_bytes):
        with ServerThread(_config(tmp_path)) as srv, \
                ServiceClient(srv.url) as client:
            job = self._submit(client, trace_bytes)
            start = time.monotonic()
            state = client.job(job + "?wait=0.2")
            assert time.monotonic() - start >= 0.15
            assert state["status"] == "running"
            assert client.job(job + "?wait=0")["status"] == "running"
            gate.set()
            assert client.wait(job, timeout=60)["status"] == "done"

    def test_wait_costs_one_request_per_replayed_job(self, tmp_path, gate,
                                                     trace_bytes):
        with ServerThread(_config(tmp_path)) as srv, \
                ServiceClient(srv.url) as client:
            job = self._submit(client, trace_bytes)
            threading.Timer(0.3, gate.set).start()
            before = client.metrics()["serve_requests"]
            assert client.wait(job, timeout=60, poll=0.001)["status"] \
                == "done"
            # the wait itself, plus this second /metrics read
            assert client.metrics()["serve_requests"] - before == 2

    @pytest.mark.parametrize("value", ["abc", "-1", "nan"])
    def test_bad_wait_is_a_typed_400(self, tmp_path, trace_bytes, value):
        with ServerThread(_config(tmp_path)) as srv, \
                ServiceClient(srv.url) as client:
            digest = client.upload(trace_bytes)["digest"]
            job = client.submit(digest, "oracle")["job"]
            with pytest.raises(ServiceError) as exc_info:
                client.job(f"{job}?wait={value}")
            assert exc_info.value.status == 400
            assert exc_info.value.payload["error"] == "bad-wait"

    def test_unknown_job_with_wait_is_404(self, tmp_path):
        with ServerThread(_config(tmp_path)) as srv, \
                ServiceClient(srv.url) as client:
            with pytest.raises(ServiceError) as exc_info:
                client.job("j99999999?wait=5")
            assert exc_info.value.status == 404
