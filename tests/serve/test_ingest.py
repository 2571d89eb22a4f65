"""Ingest: each distinct trace is parsed once.

A repeat upload is answered from the content-addressed store without a
parse; a replay worker checks the stored bytes' digest before it parses
them, so a corrupted entry fails its job and caches no verdict.
"""

import json

import pytest

from repro.common.errors import TraceFormatError
from repro.harness.trace import dump_binary, record
from repro.serve import traces as traces_mod
from repro.serve.app import ServerThread, ServiceConfig
from repro.serve.backends import trace_digest
from repro.serve.client import JobFailed, ServiceClient, ServiceError
from repro.serve.traces import TraceStore
from repro.serve.worker import ReplayJob, execute_replay_record


@pytest.fixture(scope="module")
def events():
    return record("SCAN", scale=0.1)


@pytest.fixture(scope="module")
def trace_bytes(events):
    return dump_binary(events)


@pytest.fixture()
def parses(monkeypatch):
    """Count the store's calls to ``parse_trace``."""
    calls = []
    real = traces_mod.parse_trace

    def counting(data):
        calls.append(len(data))
        return real(data)

    monkeypatch.setattr(traces_mod, "parse_trace", counting)
    return calls


class TestRepeatUpload:
    def test_repeat_upload_skips_the_parse(self, tmp_path, trace_bytes,
                                           parses):
        store = TraceStore(tmp_path)
        first = store.put_bytes(trace_bytes)
        assert len(parses) == 1
        assert store.put_bytes(trace_bytes) == first
        assert len(parses) == 1
        assert store.known_uploads == 1

    def test_json_lines_upload_of_a_stored_trace_still_parses(
            self, tmp_path, events, trace_bytes, parses):
        store = TraceStore(tmp_path)
        first = store.put_bytes(trace_bytes)
        as_json = "\n".join(e.to_json() for e in events).encode("utf-8")
        receipt = store.put_bytes(as_json)
        assert len(parses) == 2
        assert receipt == first
        assert receipt["digest"] == trace_digest(events)
        assert store.known_uploads == 0

    def test_receipt_without_sidecar(self, tmp_path, events, trace_bytes):
        store = TraceStore(tmp_path)
        first = store.put_bytes(trace_bytes)
        store._meta_path(first["digest"]).unlink()
        assert store.put_bytes(trace_bytes) == first
        assert first == {"digest": trace_digest(events),
                         "events": len(events), "bytes": len(trace_bytes)}

    @pytest.mark.parametrize("sidecar", [None, b"{not json",
                                         b'{"digest": "other"}'])
    def test_missing_or_bad_sidecar_is_rebuilt_once(
            self, tmp_path, trace_bytes, parses, sidecar):
        store = TraceStore(tmp_path)
        first = store.put_bytes(trace_bytes)
        meta_path = store._meta_path(first["digest"])
        if sidecar is None:
            meta_path.unlink()
        else:
            meta_path.write_bytes(sidecar)
        assert store.meta(first["digest"]) == first
        assert store.meta(first["digest"]) == first
        assert len(parses) == 2          # the upload, then one rebuild
        assert json.loads(meta_path.read_text()) == first

    def test_meta_of_an_absent_trace_is_a_key_error(self, tmp_path,
                                                    trace_bytes):
        store = TraceStore(tmp_path / "store")
        digest = store.put_bytes(trace_bytes)["digest"]
        store.path_for(digest).unlink()
        with pytest.raises(KeyError):
            store.meta(digest)
        # a name that is no digest never reaches the file system
        (tmp_path / "..x.hart").write_bytes(trace_bytes)
        with pytest.raises(KeyError):
            store.meta("..x")
        assert not (tmp_path / "..x.meta.json").exists()


def _flip_one_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


class TestCorruptedEntry:
    def test_worker_checks_the_bytes_before_parsing(self, tmp_path,
                                                    trace_bytes):
        store = TraceStore(tmp_path)
        digest = store.put_bytes(trace_bytes)["digest"]
        # truncated: no longer parses, but the digest check comes first
        path = store.path_for(digest)
        path.write_bytes(trace_bytes[:-3])
        job = ReplayJob.create(digest, "haccrg-word", path)
        with pytest.raises(TraceFormatError,
                           match="stored trace digest mismatch"):
            execute_replay_record(job.record())

    def test_flipped_byte_fails_the_job_and_caches_nothing(
            self, tmp_path, trace_bytes):
        config = ServiceConfig(port=0, store=str(tmp_path / "store"),
                               workers=0, retries=0, rate=10_000.0,
                               burst=10_000.0)
        with ServerThread(config) as srv, \
                ServiceClient(srv.url) as client:
            digest = client.upload(trace_bytes)["digest"]
            _flip_one_byte(srv.service.traces.path_for(digest))
            state = client.submit(digest, "haccrg-word")
            with pytest.raises(JobFailed) as failed:
                client.wait(state["job"], timeout=60)
            assert "stored trace digest mismatch" in \
                failed.value.state["error"]
            key = ReplayJob.create(digest, "haccrg-word",
                                   srv.service.traces.path_for(digest)).key()
            with pytest.raises(ServiceError) as missing:
                client.verdict_bytes(key)
            assert missing.value.status == 404
            assert len(srv.service.cache) == 0


class TestParsedReuse:
    @pytest.fixture()
    def worker_parses(self, monkeypatch):
        """Count the worker's parses, starting from no kept traces."""
        import repro.harness.trace as trace_mod
        from repro.serve import worker

        monkeypatch.setattr(worker, "_PARSED", type(worker._PARSED)())
        calls = []
        real = trace_mod.parse_trace
        monkeypatch.setattr(trace_mod, "parse_trace",
                            lambda data: calls.append(data) or real(data))
        return calls

    def test_backends_of_one_trace_share_a_parse(self, tmp_path, events,
                                                 trace_bytes,
                                                 worker_parses):
        from repro.serve.backends import get_backend, verdict_record

        store = TraceStore(tmp_path)
        digest = store.put_bytes(trace_bytes)["digest"]
        for name in ("haccrg-word", "oracle", "haccrg-word"):
            job = ReplayJob.create(digest, name, store.path_for(digest))
            assert execute_replay_record(job.record()) == verdict_record(
                digest, get_backend(name), events)
        assert len(worker_parses) == 1

    def test_kept_traces_are_bounded_by_raw_size(self, tmp_path,
                                                 monkeypatch,
                                                 worker_parses):
        from repro.serve import worker

        store = TraceStore(tmp_path)
        blobs = [dump_binary(record(name, scale=0.1))
                 for name in ("SCAN", "HIST")]
        monkeypatch.setattr(worker, "_PARSED_BYTES", max(map(len, blobs)))
        digests = [store.put_bytes(b)["digest"] for b in blobs]
        for digest in digests + digests:
            job = ReplayJob.create(digest, "haccrg-word",
                                   store.path_for(digest))
            execute_replay_record(job.record())
        assert list(worker._PARSED) == [digests[-1]]
        assert len(worker_parses) == 4


def test_metrics_count_known_uploads(tmp_path, events, trace_bytes):
    """The server answers a byte-identical POST from the store. Raw
    POSTs, as curl sends them: ``ServiceClient.upload`` asks by digest
    first and would not send the repeats at all."""
    config = ServiceConfig(port=0, store=str(tmp_path / "store"),
                           workers=0, rate=10_000.0, burst=10_000.0)
    as_json = "\n".join(e.to_json() for e in events).encode()
    with ServerThread(config) as srv, \
            ServiceClient(srv.url) as client:
        assert client.request("POST", "/traces", trace_bytes)[0] == 201
        assert client.metrics()["serve_uploads_known"] == 0
        for body in (trace_bytes, trace_bytes, as_json):
            assert client.request("POST", "/traces", body)[0] == 201
        counts = client.metrics()
        assert counts["serve_uploads_known"] == 2
        assert counts["serve_uploads"] == 4
