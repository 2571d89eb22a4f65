"""atomic_write: concurrent writers of one path never corrupt it."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.campaign.jobs import Job
from repro.campaign.store import ResultStore
from repro.common import atomic_write

#: large enough that one write spans many syscalls
BLOB = 200_000
PUTS = 15

_WRITER = """
import sys
from repro.campaign.jobs import Job
from repro.campaign.store import ResultStore
store = ResultStore(sys.argv[1])
job = Job.from_call("SCAN", seed=5)
for i in range(int(sys.argv[2])):
    store.put(job, {"writer": "proc" + sys.argv[3], "i": i,
                    "blob": "p" * int(sys.argv[4])})
"""


def _record_ok(store: ResultStore, job: Job) -> dict:
    path = store.path_for(job.key())
    entry = json.loads(path.read_text(encoding="utf-8"))
    assert entry["key"] == job.key()
    assert len(entry["result"]["blob"]) == BLOB
    return entry


def test_threads_and_processes_share_one_key(tmp_path):
    store = ResultStore(tmp_path)
    job = Job.from_call("SCAN", seed=5)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    procs = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(tmp_path),
                          str(PUTS), str(p), str(BLOB)], env=env)
        for p in range(2)
    ]
    errors = []

    def put_many(writer: int) -> None:
        try:
            for i in range(PUTS):
                store.put(job, {"writer": f"thread{writer}", "i": i,
                                "blob": "t" * BLOB})
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=put_many, args=(w,))
               for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    codes = [p.wait(timeout=120) for p in procs]

    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert codes == [0, 0]
    _record_ok(store, job)
    assert store.get(job) is not None
    # no temp file outlives its writer
    leftovers = [p.name for p in tmp_path.rglob("*") if p.is_file()]
    assert leftovers == [store.path_for(job.key()).name]


def test_failed_write_leaves_target_and_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "entry.json"
    atomic_write(target, "old")

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError, match="disk full"):
        atomic_write(target, b"new")
    monkeypatch.undo()
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]
