"""Blocking HTTP client for the detection service (stdlib only).

Drives the full upload → job → verdict lifecycle; ``repro submit`` and
the integration tests are thin wrappers over this. 429 responses are
retried with the server-supplied Retry-After (bounded), so a polite
client rides out backpressure instead of failing.

A cached verdict costs as little HTTP as the protocol allows: one
keep-alive connection carries every request, :meth:`ServiceClient.upload`
asks for the trace by digest before it sends the body, and
:meth:`ServiceClient.wait` long-polls ``GET /jobs/{id}?wait=S`` so a
replayed job settles in one wait request.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import urlsplit

from repro.common.errors import ReproError

#: terminal job states the waiter accepts
_TERMINAL = {"done", "error", "timeout", "crashed"}


class ServiceError(ReproError):
    """A non-2xx response (after any 429 retries were exhausted)."""

    def __init__(self, status: int, payload: Any) -> None:
        message = payload.get("message") if isinstance(payload, dict) \
            else str(payload)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class JobFailed(ReproError):
    """A job reached a terminal non-``done`` state."""

    def __init__(self, state: Dict[str, Any]) -> None:
        super().__init__(f"job {state.get('job')} "
                         f"{state.get('status')}: {state.get('error')}")
        self.state = state


class ServiceClient:
    """One service endpoint over one keep-alive connection.

    Safe to use from multiple threads serially: requests hold a lock.
    Call :meth:`close` (or use the client as a context manager) to drop
    the connection.
    """

    def __init__(self, base_url: str, client_id: Optional[str] = None,
                 timeout: float = 60.0, max_429_retries: int = 20) -> None:
        split = urlsplit(base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme {split.scheme!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.client_id = client_id
        self.timeout = timeout
        self.max_429_retries = max_429_retries
        self._conn: Optional[http.client.HTTPConnection] = None
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the keep-alive connection; the next request reopens it."""
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- wire ----------------------------------------------------------

    def request(self, method: str, path: str,
                body: Optional[bytes] = None,
                retry_429: bool = False) -> Tuple[int, Dict[str, str],
                                                  bytes]:
        """One request (optionally retrying 429s); returns the raw triple."""
        attempts = 0
        while True:
            status, headers, payload = self._request_once(method, path,
                                                          body)
            if status != 429 or not retry_429 \
                    or attempts >= self.max_429_retries:
                return status, headers, payload
            attempts += 1
            retry_after = min(2.0, float(headers.get("retry-after", 0.05))
                              or 0.05)
            time.sleep(retry_after)

    def _request_once(self, method: str, path: str,
                      body: Optional[bytes]) -> Tuple[int, Dict[str, str],
                                                      bytes]:
        headers = {}
        if self.client_id:
            headers["X-Client"] = self.client_id
        with self._lock:
            reused = self._conn is not None
            try:
                resp = self._send(method, path, body, headers)
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected is a ConnectionResetError. A reused
                # connection the server closed while it sat idle gets
                # no response at all, so the request was never handled:
                # send it once more on a fresh connection (_send has
                # dropped the dead one).
                if not reused:
                    raise
                resp = self._send(method, path, body, headers)
            try:
                payload = resp.read()
            except BaseException:
                self.close()
                raise
            if resp.will_close:
                self.close()
        return (resp.status,
                {k.lower(): v for k, v in resp.getheaders()}, payload)

    def _send(self, method: str, path: str, body: Optional[bytes],
              headers: Dict[str, str]) -> http.client.HTTPResponse:
        """Send one request on the kept connection; return its response."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port,
                                                    timeout=self.timeout)
        try:
            self._conn.request(method, path, body=body, headers=headers)
            return self._conn.getresponse()
        except BaseException:
            self.close()
            raise

    def _json(self, method: str, path: str, body: Optional[bytes] = None,
              retry_429: bool = False) -> Dict[str, Any]:
        status, _, payload = self.request(method, path, body,
                                          retry_429=retry_429)
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            decoded = {"message": payload.decode("utf-8", "replace")}
        if status >= 400:
            raise ServiceError(status, decoded)
        return decoded

    # -- API -----------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics(self) -> Dict[str, float]:
        status, _, payload = self.request("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, payload.decode("utf-8", "replace"))
        out: Dict[str, float] = {}
        for line in payload.decode("utf-8").splitlines():
            name, _, value = line.partition(" ")
            if name:
                out[name] = float(value)
        return out

    def backends(self) -> Dict[str, Any]:
        return self._json("GET", "/backends")

    def upload(self, trace: Union[bytes, str, Path]) -> Dict[str, Any]:
        """Upload trace bytes or a trace file; returns the receipt.

        Asks for the bytes' SHA-256 first: a trace the store already
        holds byte for byte costs one small GET and no body. A 404
        (a new trace, or a non-canonical form such as JSON-lines) sends
        the body with ``POST /traces``.
        """
        data = trace if isinstance(trace, bytes) \
            else Path(trace).read_bytes()
        status, _, payload = self.request(
            "GET", f"/traces/{hashlib.sha256(data).hexdigest()}")
        if status == 200:
            return json.loads(payload.decode("utf-8"))
        return self._json("POST", "/traces", body=data)

    def submit(self, trace_digest: str, backend: str,
               program: Optional[Dict[str, Any]] = None,
               retry_429: bool = True) -> Dict[str, Any]:
        """Submit one job; returns its (possibly already-done) state."""
        job: Dict[str, Any] = {"trace": trace_digest, "backend": backend}
        if program is not None:
            job["program"] = program
        return self._json("POST", "/jobs",
                          body=json.dumps(job).encode("utf-8"),
                          retry_429=retry_429)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.02) -> Dict[str, Any]:
        """Long-poll until the job settles; raises JobFailed on failure.

        Each ``GET /jobs/{id}?wait=S`` is held by the server until the
        job settles or S seconds pass, with S kept below this client's
        socket timeout. ``poll`` is the least time between two requests:
        it spaces the next request only when a hold came back early and
        unsettled (a server that clamps or ignores ``?wait=``).
        """
        deadline = time.monotonic() + timeout
        while True:
            sent = time.monotonic()
            hold = max(0.0, min(deadline - sent, self.timeout / 2))
            state = self._json("GET", f"/jobs/{job_id}?wait={hold:.3f}")
            if state.get("status") in _TERMINAL:
                if state["status"] != "done":
                    raise JobFailed(state)
                return state
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {state.get('status')} after "
                    f"{timeout:.0f}s")
            time.sleep(max(0.0, min(sent + poll, deadline) - now))

    def verdict_bytes(self, key: str) -> bytes:
        status, _, payload = self.request("GET", f"/verdicts/{key}")
        if status != 200:
            try:
                decoded = json.loads(payload.decode("utf-8"))
            except ValueError:
                decoded = payload.decode("utf-8", "replace")
            raise ServiceError(status, decoded)
        return payload

    def verdict(self, key: str) -> Dict[str, Any]:
        return json.loads(self.verdict_bytes(key).decode("utf-8"))

    # -- conveniences --------------------------------------------------

    def detect(self, trace: Union[bytes, str, Path], backend: str,
               program: Optional[Dict[str, Any]] = None,
               timeout: float = 300.0) -> Dict[str, Any]:
        """Upload + submit + wait + fetch: one call, one verdict record."""
        receipt = self.upload(trace)
        state = self.submit(receipt["digest"], backend, program=program)
        if state["status"] not in _TERMINAL:
            state = self.wait(state["job"], timeout=timeout)
        elif state["status"] != "done":
            raise JobFailed(state)
        return self.verdict(state["verdict"])
