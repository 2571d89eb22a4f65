"""The detection service: routes, wiring, and embedding helpers.

Endpoints (see docs/SERVICE.md for the full reference):

- ``POST /traces``       upload a HART trace (binary or JSON-lines body);
  returns its content digest. Corrupt uploads get a structured 400; a
  byte-identical repeat of a stored trace is answered without a parse.
- ``POST /jobs``         submit ``{"trace": digest, "backend": name}``
  (plus ``"program"`` for the static backend); 200 with a done state on
  a verdict-cache hit, 202 queued otherwise, 429 + Retry-After under
  backpressure or rate limiting.
- ``GET /jobs/{id}``     poll a job's lifecycle state.
- ``GET /verdicts/{key}`` the canonical verdict bytes — byte-identical
  to ``repro trace replay --backend <name> --json`` on the same trace.
- ``GET /traces/{digest}`` upload receipt for a stored trace.
- ``GET /backends``      the detector-backend registry.
- ``GET /healthz``       liveness + worker/queue snapshot.
- ``GET /metrics``       plain-text counters (``name value`` lines).

The service owns a :class:`TraceStore`, a :class:`VerdictCache`, and a
:class:`Scheduler` over the campaign engine's :class:`WorkerPool`
(``--workers 0`` runs replays in the pool's own thread); all state lives
under one ``--store`` root, so restarting the service keeps every trace
and verdict it ever computed.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.campaign.pool import WorkerPool
from repro.common.errors import TraceFormatError
from repro.serve.backends import (
    BackendError,
    backend_names,
    get_backend,
)
from repro.serve.httpd import (
    DEFAULT_MAX_BODY,
    HTTPServer,
    Request,
    Response,
    error_response,
    json_response,
)
from repro.serve.scheduler import Backpressure, RateLimited, Scheduler
from repro.serve.traces import TraceStore
from repro.serve.verdicts import VerdictCache

SERVICE_NAME = "repro-serve"
SERVICE_VERSION = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Everything `repro serve` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8037
    store: str = ".serve-store"
    workers: int = 2
    timeout: Optional[float] = 120.0
    retries: int = 1
    high_water: int = 64
    rate: float = 50.0           # requests/s per client
    burst: float = 100.0
    max_body: int = DEFAULT_MAX_BODY


class Service:
    """One service instance: stores + scheduler + HTTP front end."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        root = Path(config.store)
        self.traces = TraceStore(root / "traces")
        self.cache = VerdictCache(root / "verdicts")
        self.pool = WorkerPool(
            workers=config.workers, timeout=config.timeout,
            retries=config.retries)
        self.scheduler = Scheduler(
            self.pool, self.cache, high_water=config.high_water,
            rate=config.rate, burst=config.burst)
        self.http = HTTPServer(self.handle, config.host, config.port,
                               max_body=config.max_body)
        self.started = time.time()
        self.metrics: Dict[str, int] = {"uploads": 0, "bad_uploads": 0,
                                        "requests": 0}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        self.pool.start()
        return await self.http.start()

    async def stop(self) -> None:
        await self.http.stop()
        await self.scheduler.drain(timeout=10.0)
        self.pool.stop()

    # -- routing -------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        self.metrics["requests"] += 1
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]

        if method == "GET":
            if path == "/healthz":
                return self._healthz()
            if path == "/metrics":
                return self._metrics_text()
            if path == "/backends":
                return json_response(
                    {"backends": [get_backend(n).describe()
                                  for n in backend_names()]})
            if len(parts) == 2 and parts[0] == "jobs":
                return self._get_job(parts[1])
            if len(parts) == 2 and parts[0] == "verdicts":
                return self._get_verdict(parts[1])
            if len(parts) == 2 and parts[0] == "traces":
                return self._get_trace(parts[1])
            return error_response(404, "not-found",
                                  f"no route for GET {path}")
        if method == "POST":
            if path == "/traces":
                return self._post_trace(request)
            if path == "/jobs":
                return self._post_job(request)
            return error_response(404, "not-found",
                                  f"no route for POST {path}")
        return error_response(405, "method-not-allowed",
                              f"{method} is not supported")

    # -- handlers ------------------------------------------------------

    def _post_trace(self, request: Request) -> Response:
        if not request.body:
            return error_response(400, "empty-upload",
                                  "POST /traces expects the trace bytes "
                                  "as the request body")
        try:
            receipt = self.traces.put_bytes(request.body)
        except TraceFormatError as exc:
            self.metrics["bad_uploads"] += 1
            return error_response(400, "trace-format", str(exc))
        self.metrics["uploads"] += 1
        return json_response(receipt, status=201)

    def _post_job(self, request: Request) -> Response:
        from repro.serve.worker import ReplayJob

        payload = request.json()
        if not isinstance(payload, dict):
            return error_response(400, "bad-job",
                                  "POST /jobs expects a JSON object")
        digest = payload.get("trace")
        backend_name = payload.get("backend")
        program = payload.get("program")
        if not isinstance(digest, str) or not isinstance(backend_name, str):
            return error_response(
                400, "bad-job",
                "job must carry string fields 'trace' and 'backend'")
        if program is not None and not isinstance(program, dict):
            return error_response(400, "bad-job",
                                  "'program' must be an object when given")
        try:
            backend = get_backend(backend_name)
        except BackendError as exc:
            return error_response(400, "unknown-backend", str(exc))
        if digest not in self.traces:
            return error_response(
                404, "unknown-trace",
                f"trace {digest[:16]}... has not been uploaded")
        if backend.kind == "static" and program is None:
            return error_response(
                400, "program-required",
                "backend 'static' requires a 'program' spec in the job")

        job = ReplayJob.create(digest, backend.name,
                               self.traces.path_for(digest), program)
        client = request.headers.get("x-client", request.client or "?")
        try:
            state = self.scheduler.submit(client, job)
        except RateLimited as exc:
            return error_response(
                429, "rate-limited", str(exc),
                headers={"retry-after": f"{exc.retry_after:.3f}"})
        except Backpressure as exc:
            return error_response(
                429, "backpressure", str(exc),
                headers={"retry-after": f"{exc.retry_after:.3f}"})
        status = 200 if state.cached else 202
        return json_response(state.describe(), status=status)

    def _get_job(self, job_id: str) -> Response:
        try:
            state = self.scheduler.job(job_id)
        except KeyError:
            return error_response(404, "unknown-job",
                                  f"no job {job_id!r}")
        return json_response(state.describe())

    def _get_verdict(self, key: str) -> Response:
        body = self.cache.get_bytes(key)
        if body is None:
            return error_response(
                404, "unknown-verdict",
                f"no verdict {key[:16]}... (not computed, or evicted)")
        return Response(status=200, body=body)

    def _get_trace(self, digest: str) -> Response:
        try:
            meta = self.traces.meta(digest)
        except KeyError:
            return error_response(404, "unknown-trace",
                                  f"trace {digest[:16]}... is not stored")
        return json_response(meta)

    def _healthz(self) -> Response:
        return json_response({
            "status": "ok",
            "service": SERVICE_NAME,
            "version": SERVICE_VERSION,
            "workers": self.pool.workers,
            "queue_depth": self.pool.queue_depth,
            "high_water": self.scheduler.high_water,
            "uptime": round(time.time() - self.started, 3),
        })

    def _metrics_text(self) -> Response:
        counters: Dict[str, Any] = {}
        for name, value in self.metrics.items():
            counters[f"serve_{name}"] = value
        counters["serve_uploads_known"] = self.traces.known_uploads
        for name, value in self.scheduler.metrics.items():
            counters[f"jobs_{name}"] = value
        for name, value in self.pool.stats.items():
            counters[f"pool_{name}"] = value
        for name, value in self.cache.stats().items():
            counters[f"verdicts_{name}"] = value
        counters["queue_depth"] = self.pool.queue_depth
        counters["workers"] = self.pool.workers
        counters["traces_stored"] = len(self.traces)
        body = "".join(f"{name} {counters[name]}\n"
                       for name in sorted(counters))
        return Response(status=200, body=body.encode("utf-8"),
                        content_type="text/plain; charset=utf-8")


# ---------------------------------------------------------------------------
# embedding / running
# ---------------------------------------------------------------------------

async def run_service(config: ServiceConfig,
                      ready: Optional["asyncio.Event"] = None) -> None:
    """Run until cancelled (the `repro serve` main loop)."""
    service = Service(config)
    host, port = await service.start()
    print(f"{SERVICE_NAME}: listening on http://{host}:{port} "
          f"({config.workers} workers, store {config.store})")
    if ready is not None:
        ready.set()
    try:
        while True:
            await asyncio.sleep(3600)
    except asyncio.CancelledError:
        pass
    finally:
        await service.stop()


class ServerThread:
    """A service running in a dedicated thread + event loop.

    The embedding used by tests, `perfbench/`, and anything else
    that wants a live HTTP endpoint without owning an event loop::

        with ServerThread(ServiceConfig(port=0, workers=0)) as server:
            client = ServiceClient(server.url)
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service: Optional[Service] = None
        self.host = config.host
        self.port = config.port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run,
                                        name="serve-thread", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("service did not start within 30s")
        if self._error is not None:
            raise RuntimeError(f"service failed to start: {self._error}")
        return self

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._thread = None
        self._loop = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self.service = Service(self.config)
            self.host, self.port = loop.run_until_complete(
                self.service.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            self._error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.service.stop())
            loop.close()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
