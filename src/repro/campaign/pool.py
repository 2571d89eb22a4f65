"""The worker pool: one supervisor for campaign batches and the service.

Workers are persistent ``spawn`` processes (spawn is fork-safe on every
platform and never inherits simulator state); each receives one job at a
time and reports its result on a pipe of its own, so a worker that dies
mid-write cannot wedge the others. One supervisor loop
(:meth:`WorkerPool._supervise`) takes jobs in, dispatches them to idle
workers and drains their results. It kills a worker whose job overran
the per-job wall-clock timeout, treats a worker that died (segfault,
``os._exit``, OOM-kill) as a failed job, respawns both, and retries
failed attempts a bounded number of times. A worker that cannot spawn
(or respawn) fails the pool's jobs, never its caller. One bad job never
stops the rest.

The loop is driven two ways:

- :meth:`WorkerPool.run` runs a batch on the caller's thread, where both
  callbacks fire. Ctrl-C stops the workers and re-raises at once; jobs
  it left unfinished get no outcome, so a campaign can resume them.
- :meth:`~WorkerPool.start`, :meth:`~WorkerPool.submit` and
  :meth:`~WorkerPool.stop` run it on a background thread for a
  long-running service; each submission's future resolves to its
  outcome, and stopping settles every job still owed one.

A job submitted with a ``shard`` (a hex key; the service passes the
trace digest) prefers worker ``shard % workers``: an idle worker takes
the head of its own backlog first, then a job with no shard, and only
then *spills*, taking the oldest job of the longest backlog whose worker
is busy (counted in ``stats["spills"]``). So a trace's jobs run on its
worker whenever that worker is free, and never wait while another
worker idles. Campaign batches submit no shards. A submission writes a
byte to a socket pair that the supervisor waits on beside the busy
workers' pipes, so it is dispatched at once, not at the next 20 ms poll.

``workers=0`` runs jobs in the supervisor's own thread with the same
retry loop; per-job timeouts and crash isolation need a second process
and do not apply there.

Everything that crosses a process boundary is plain data: job records in,
result records out (see :mod:`repro.campaign.jobs`).
"""

from __future__ import annotations

import contextlib
import queue as stdqueue
import socket
import threading
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.campaign.jobs import Job, execute_record

if TYPE_CHECKING:
    from concurrent.futures import Future

#: outcome status values
OK = "ok"
ERROR = "error"
TIMEOUT = "timeout"
CRASHED = "crashed"

#: the ``stats`` counter each terminal status increments
_STAT = {OK: "completed", ERROR: "errors", TIMEOUT: "timeouts",
         CRASHED: "crashes"}


@dataclass
class JobOutcome:
    """Terminal result of one job after all retries."""

    key: str
    status: str                       # ok | error | timeout | crashed
    record: Optional[Dict[str, Any]]  # result record when status == ok
    error: Optional[str]
    attempts: int
    elapsed: float                    # last attempt's wall-clock seconds

    @property
    def ok(self) -> bool:
        return self.status == OK


DispatchFn = Callable[[str, int, int], None]
OutcomeFn = Callable[[JobOutcome], None]
#: what a worker reports per job: status, record, error, elapsed seconds
Result = Tuple[str, Optional[Dict[str, Any]], Optional[str], float]


@dataclass
class _Task:
    key: str
    record: Dict[str, Any]
    shard: Optional[int] = None
    future: "Optional[Future[JobOutcome]]" = None
    attempts: int = 0


def _execute(record: Dict[str, Any]) -> Result:
    """Run one job record, turning an exception into an error result."""
    start = time.perf_counter()
    try:
        return OK, execute_record(record), None, time.perf_counter() - start
    except Exception as exc:  # crash isolation: report, keep serving
        return (ERROR, None, f"{type(exc).__name__}: {exc}",
                time.perf_counter() - start)


def _worker_main(conn) -> None:
    """Worker loop: receive one job record, execute, reply, repeat."""
    while True:
        try:
            record = conn.recv()
        except EOFError:  # the supervisor is gone
            return
        if record is None:
            return
        conn.send(_execute(record))


class InlineWorker:
    """Runs each job in the supervisor's own thread (``workers=0``).

    Dispatching only records the job and :meth:`receive` runs it, so a
    dispatch is reported before its job starts. It also keeps the
    bookkeeping (current task, start time, busy time) that
    :class:`SpawnWorker` shares.
    """

    def __init__(self, worker_id: int = 0) -> None:
        self.worker_id = worker_id
        self.current: Optional[_Task] = None
        self.busy_seconds = 0.0
        self._started_at = 0.0
        self._timeout: Optional[float] = None

    def dispatch(self, task: _Task, timeout: Optional[float]) -> None:
        self.current = task
        self._started_at = time.monotonic()
        self._timeout = timeout
        self._send(task.record)

    def _send(self, record: Optional[Dict[str, Any]]) -> None:
        pass

    def receive(self) -> Optional[Result]:
        """The current job's result, or None if the worker died."""
        assert self.current is not None
        return _execute(self.current.record)

    def finish(self) -> _Task:
        """Free the worker; returns the task it was running."""
        task, self.current = self.current, None
        assert task is not None
        self.busy_seconds += time.monotonic() - self._started_at
        return task

    def fault(self) -> Optional[Result]:
        """The current job's result if it overran or its worker died."""
        return None

    def stop(self, graceful: bool = True) -> None:
        pass


class SpawnWorker(InlineWorker):
    """Supervisor-side handle on one spawned worker process.

    Jobs and results travel over a pipe of its own, so a worker that dies
    mid-write breaks only its own channel, never its siblings'. ``None``
    on the pipe means "shut down".
    """

    def __init__(self, ctx, worker_id: int) -> None:
        super().__init__(worker_id)
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main, args=(child,),
                                   daemon=True)
        self.process.start()
        child.close()

    def _send(self, record: Optional[Dict[str, Any]]) -> None:
        try:
            self.conn.send(record)
        except OSError:  # the worker is dead; the health check says so
            pass

    def receive(self) -> Optional[Result]:
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def fault(self) -> Optional[Result]:
        timeout = self._timeout
        if timeout and time.monotonic() - self._started_at > timeout:
            return TIMEOUT, None, f"timed out after {timeout:.1f}s", timeout
        if not self.process.is_alive():
            return (CRASHED, None, "worker process died "
                    f"(exit code {self.process.exitcode})", 0.0)
        return None

    def stop(self, graceful: bool = True) -> None:
        """Shut down: sentinel and a short join, then terminate."""
        if graceful:
            self._send(None)
            self.process.join(timeout=2)
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        self.conn.close()


class WorkerPool:
    """Run jobs across N processes with timeout + retry + crash isolation."""

    def __init__(self, workers: int = 1,
                 timeout: Optional[float] = None,
                 retries: int = 1) -> None:
        self.workers = max(0, int(workers))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.worker_busy_seconds: List[float] = []
        self.stats = {"completed": 0, "errors": 0, "timeouts": 0,
                      "crashes": 0, "retries": 0, "respawns": 0,
                      "spills": 0}
        #: guards ``stats`` and ``_depth``, and orders submissions
        #: against stopping: a job put on the intake before ``_stop`` is
        #: set is always settled by the supervisor
        self._lock = threading.Lock()
        self._depth = 0
        self._intake: "stdqueue.Queue[Optional[_Task]]" = stdqueue.Queue()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: (read, write) ends of the service's wake-up pair: a submission
        #: writes a byte so a supervisor waiting on busy workers looks now
        self._wake: Optional[Tuple[socket.socket, socket.socket]] = None

    @property
    def queue_depth(self) -> int:
        """Jobs accepted and not yet settled."""
        with self._lock:
            return self._depth

    # -- batch ---------------------------------------------------------

    def run(self, jobs: Dict[str, Job],
            on_dispatch: Optional[DispatchFn] = None,
            on_outcome: Optional[OutcomeFn] = None
            ) -> Dict[str, JobOutcome]:
        """Execute every job; returns final outcomes keyed by job hash.

        ``on_dispatch(key, worker_id, attempt)`` fires when a job starts
        (attempt is 1-based); ``on_outcome`` fires once per job with its
        terminal outcome. Both run on the calling thread. If either
        raises, the workers stop and the jobs not yet settled get no
        outcome.
        """
        if not jobs:
            return {}
        tasks = [_Task(key, job.record()) for key, job in jobs.items()]
        with self._lock:
            self._depth += len(tasks)
        outcomes: Dict[str, JobOutcome] = {}
        events = self._supervise(tasks, min(self.workers, len(tasks)))
        with contextlib.closing(events):
            for task, event in events:
                if isinstance(event, JobOutcome):
                    outcomes[task.key] = event
                    if on_outcome:
                        on_outcome(event)
                elif on_dispatch:
                    on_dispatch(task.key, event, task.attempts)
        return outcomes

    # -- service -------------------------------------------------------

    def start(self) -> None:
        """Run the supervisor on a background thread until :meth:`stop`."""
        def serve() -> None:
            for _ in self._supervise([], self.workers):
                pass

        if self.workers:  # inline jobs run in the loop: nothing to wake
            self._wake = socket.socketpair()
            for end in self._wake:
                end.setblocking(False)
        self._thread = threading.Thread(target=serve, name="worker-pool",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        with self._lock:
            self._stop.set()
        if self._thread is not None:
            self._intake.put(None)
            self._thread.join(timeout=30)
            self._thread = None
        if self._wake is not None:
            for end in self._wake:
                end.close()
            self._wake = None

    def submit(self, key: str, record: Dict[str, Any],
               shard: Optional[str] = None) -> "Future[JobOutcome]":
        """Enqueue one job record; the future resolves to its outcome.

        Jobs with the same ``shard`` (a hex string, e.g. a digest) run on
        the same worker whenever it is free; while it is busy, an idle
        worker may take one (a spill).
        """
        from concurrent.futures import Future

        future: "Future[JobOutcome]" = Future()
        task = _Task(key, record, None if shard is None
                     else int(shard[:16] or "0", 16), future)
        with self._lock:
            if self._stop.is_set():
                raise RuntimeError("worker pool is stopped")
            self._depth += 1
            self._intake.put(task)
            if self._wake is not None:
                with contextlib.suppress(OSError):  # full: already woken
                    self._wake[1].send(b"\0")
        return future

    # -- the supervisor loop --------------------------------------------

    def _supervise(self, tasks: List[_Task], n_workers: int
                   ) -> Iterator[Tuple[_Task, Any]]:
        """Run jobs until ``tasks`` settle, or, given none, until stopped.

        Yields ``(task, worker_id)`` when a task is dispatched and
        ``(task, outcome)`` when it settles. Closing the generator (its
        consumer raised, or Ctrl-C) stops the workers and settles nothing
        more; stopping or a pool failure settles every job still owed.
        """
        from multiprocessing import connection, get_context

        n = max(1, n_workers)
        wake = None if tasks or self._wake is None else self._wake[0]
        owed = len(tasks)
        batch = bool(tasks)
        anywhere: List[_Task] = list(tasks)   # unsharded: any idle worker
        backlog: List[List[_Task]] = [[] for _ in range(n)]
        workers: List[InlineWorker] = []
        failure = "worker pool shutting down"

        def place(task: _Task) -> None:
            if task.shard is None:
                anywhere.append(task)
            else:
                backlog[task.shard % n].append(task)

        def settle(task: _Task, result: Result) -> Optional[JobOutcome]:
            """Requeue a failed attempt with retries left, else settle."""
            status, record, error, elapsed = result
            if status != OK and task.attempts <= self.retries:
                with self._lock:
                    self.stats["retries"] += 1
                place(task)
                return None
            return self._deliver(task, JobOutcome(
                task.key, status, record, error, task.attempts, elapsed))

        try:
            ctx = get_context("spawn")
            for wid in range(n):
                workers.append(SpawnWorker(ctx, wid) if self.workers
                               else InlineWorker())
            # a batch ends when its jobs settle, the service at stop()
            while owed if batch else not self._stop.is_set():
                # 1. intake: wait on it only while there is nothing to run
                busy = [w for w in workers if w.current is not None]
                try:
                    item = (self._intake.get_nowait()
                            if busy or anywhere or any(backlog)
                            else self._intake.get(timeout=0.02))
                    while item is not None:
                        owed += 1
                        place(item)
                        item = self._intake.get_nowait()
                except stdqueue.Empty:
                    pass

                # 2. dispatch to idle workers, those with a backlog first:
                # own backlog, then unsharded jobs, then a spill (the head
                # of the longest backlog whose worker is busy)
                idle = [w for w in workers if w.current is None]
                for worker in sorted(idle,
                                     key=lambda w: not backlog[w.worker_id]):
                    queue = backlog[worker.worker_id] or anywhere
                    if not queue:
                        queue = max((b for b, w in zip(backlog, workers)
                                     if w.current is not None),
                                    key=len, default=[])
                        if not queue:
                            break
                        with self._lock:
                            self.stats["spills"] += 1
                    task = queue.pop(0)
                    task.attempts += 1
                    worker.dispatch(task, self.timeout)
                    yield task, worker.worker_id
                busy = [w for w in workers if w.current is not None]
                if not busy:
                    continue

                # 3. drain results (a dead worker's pipe reads as None);
                # with none, look for overrun or dead workers to replace.
                # A submission's wake-up byte ends the wait early.
                if self.workers == 0:
                    ready = busy
                else:
                    conns = {w.conn: w for w in busy}
                    ready = []
                    waitables = [*conns, wake] if wake else list(conns)
                    for c in connection.wait(waitables, timeout=0.02):
                        if c is wake:
                            with contextlib.suppress(OSError):
                                wake.recv(4096)
                        else:
                            ready.append(conns[c])
                done = [(w, w.receive()) for w in ready]
                replace = not any(result for _, result in done)
                if replace:
                    done = [(w, w.fault()) for w in busy]
                for worker, result in done:
                    if result is None:
                        continue
                    if replace:
                        # spawn before finish(): if the spawn raises, the
                        # task is still the dead worker's current job, so
                        # the leftovers below settle it
                        worker.stop(graceful=False)
                        workers[worker.worker_id] = SpawnWorker(
                            ctx, worker.worker_id)
                        with self._lock:
                            self.stats["respawns"] += 1
                    task = worker.finish()
                    workers[worker.worker_id].busy_seconds = \
                        worker.busy_seconds
                    outcome = settle(task, result)
                    if outcome is not None:
                        owed -= 1
                        yield task, outcome
        except Exception as exc:  # noqa: BLE001 - e.g. a worker cannot spawn
            failure = f"worker pool failed: {type(exc).__name__}: {exc}"
            with self._lock:
                self._stop.set()  # later submissions raise, never hang
        finally:
            self.worker_busy_seconds = [w.busy_seconds for w in workers]
            for worker in workers:
                worker.stop()

        # stopped or failed (never closed): settle every job still owed
        leftovers = [w.current for w in workers if w.current is not None]
        leftovers += anywhere + [t for shard in backlog for t in shard]
        while not self._intake.empty():
            leftovers.append(self._intake.get_nowait())
        for task in leftovers:
            if task is not None:
                yield task, self._deliver(task, JobOutcome(
                    task.key, ERROR, None, failure, task.attempts, 0.0))

    def _deliver(self, task: _Task, outcome: JobOutcome) -> JobOutcome:
        """Count a terminal outcome and resolve the task's future."""
        with self._lock:
            self._depth -= 1
            self.stats[_STAT[outcome.status]] += 1
        # a caller may have cancelled the future; that must not fail the pool
        if (task.future is not None
                and task.future.set_running_or_notify_cancel()):
            task.future.set_result(outcome)
        return outcome
