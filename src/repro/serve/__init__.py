"""repro.serve — async detection-as-a-service over HART traces.

An asyncio HTTP service (stdlib only) that accepts recorded trace
uploads, content-digests them, shards replay jobs across the campaign
engine's persistent worker pool (its spawn workers, timeout, retry, and
crash isolation), replays each trace through any registered
detector backend, and serves canonical-JSON verdicts from a
digest-keyed cache — repeat submissions never replay.

Entry points: ``repro serve`` boots the service, ``repro submit`` is
the client CLI, :class:`ServerThread` embeds a live endpoint in-process
(tests, benchmarks). See docs/SERVICE.md.
"""

from repro.serve.app import ServerThread, Service, ServiceConfig
from repro.serve.backends import (
    BACKENDS,
    Backend,
    BackendError,
    backend_names,
    canonical_json,
    get_backend,
    trace_digest,
    verdict_bytes,
    verdict_key,
    verdict_record,
)
from repro.serve.client import JobFailed, ServiceClient, ServiceError
from repro.serve.scheduler import (
    Backpressure,
    RateLimited,
    Scheduler,
    TokenBucket,
)
from repro.serve.traces import TraceStore
from repro.serve.verdicts import VerdictCache
from repro.serve.worker import ReplayJob, execute_replay_record

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendError",
    "Backpressure",
    "JobFailed",
    "RateLimited",
    "ReplayJob",
    "Scheduler",
    "ServerThread",
    "Service",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "TokenBucket",
    "TraceStore",
    "VerdictCache",
    "backend_names",
    "canonical_json",
    "execute_replay_record",
    "get_backend",
    "trace_digest",
    "verdict_bytes",
    "verdict_key",
    "verdict_record",
]
