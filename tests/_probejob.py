"""A controllable job kind for pool fault-injection tests.

Registered under kind ``"probe"`` via the ``REPRO_JOB_EXECUTORS``
environment variable so spawn workers (which import the executor table
fresh) can resolve it (:func:`register_probe`). The record's
``behavior`` field selects:

- ``"ok"``     — return a small record echoing the payload and the pid
  of the process that ran it;
- ``"error"``  — raise (exercises retry + terminal ERROR);
- ``"crash"``  — kill the worker process outright (``os._exit``),
  exercising crash isolation and respawn;
- ``"sleep"``  — block for ``seconds`` (exercises timeout kill), then
  return the pid like ``"ok"``.
"""

import os
import time

from repro.campaign.jobs import JOB_EXECUTORS

#: the value tests must put in REPRO_JOB_EXECUTORS
EXECUTOR_SPEC = "probe=tests._probejob:execute_probe_record"


def register_probe(monkeypatch):
    """Make the probe kind resolvable here and in spawn workers."""
    monkeypatch.setenv("REPRO_JOB_EXECUTORS", EXECUTOR_SPEC)
    monkeypatch.setitem(JOB_EXECUTORS, "probe",
                        EXECUTOR_SPEC.split("=", 1)[1])


class ProbeJob:
    """A probe record in the shape ``WorkerPool.run`` takes."""

    def __init__(self, behavior: str, payload: str = "",
                 seconds: float = 0.0):
        self._record = make_record(behavior, payload, seconds)

    def record(self):
        return self._record


def make_record(behavior: str, payload: str = "", seconds: float = 0.0):
    return {"kind": "probe", "behavior": behavior, "payload": payload,
            "seconds": seconds}


def execute_probe_record(record):
    behavior = record.get("behavior")
    if behavior == "ok":
        return {"ok": True, "echo": record.get("payload", ""),
                "pid": os.getpid()}
    if behavior == "error":
        raise RuntimeError(f"probe error: {record.get('payload', '')}")
    if behavior == "crash":
        os._exit(13)
    if behavior == "sleep":
        time.sleep(float(record.get("seconds", 60.0)))
        return {"ok": True, "slept": record.get("seconds"),
                "pid": os.getpid()}
    raise ValueError(f"unknown probe behavior {behavior!r}")
