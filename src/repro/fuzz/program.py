"""Serializable fuzz-kernel programs and their interpreter.

A :class:`FuzzProgram` is a small JSON-safe spec — launch shape, array
sizes, and a list of *statements* drawn from the paper's access-pattern
vocabulary — interpreted by one generic generator kernel. Keeping the
program declarative makes iterations content-addressable, lets the
minimizer drop statements structurally, and keeps corpus entries tiny.

Statement vocabulary (each statement is a dict with an ``op``):

``g``      global-memory stream: every thread reads/writes/atomics
           ``g[base + (idx*stride + shift) % span]`` where ``idx`` is the
           grid-wide thread id (``scope="grid"``) or the in-block thread
           id with a per-block region offset (``scope="block"``).
``s``      the same on the block's shared array.
``byte``   one-byte accesses into a byte-granularity bin array.
``tree``   shared-memory reduction tree with a per-level barrier mask.
``locked`` critical-section update of one global word: lock, load,
           store, optional __threadfence, unlock. ``mod`` thins the
           participants; ``skip_tid`` / ``wrong_lock_tid`` model the
           naked-write and wrong-lock bugs.
``div``    divergent half-warp writes (lane < 16) to private slots.
``barrier`` / ``fence``  uniform __syncthreads / __threadfence.

Safety is a *whole-program* property the generator establishes by
region-partitioning the arrays; the interpreter executes whatever it is
given.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.gpu.device import DeviceArray, DeviceMemory, device_alloc
from repro.gpu.kernel import Kernel

#: bump when program semantics change (part of every content hash)
PROGRAM_SCHEMA = 1


@dataclass(frozen=True)
class FuzzProgram:
    """One generated kernel: launch shape, arrays, statements."""

    blocks: int
    threads: int              # per block; multiple of the warp size
    global_words: int
    shared_words: int
    byte_bytes: int           # byte-bin array length (0 = absent)
    num_locks: int
    stmts: tuple              # tuple of statement dicts
    #: expected race categories (names) when a race was injected; empty
    #: for programs that are race-free by construction
    expected: tuple = ()
    #: expected detector-only artifact labels (e.g. misaligned byte bins
    #: produce "granularity" false positives by design)
    expected_fp_labels: tuple = ()
    note: str = ""

    @property
    def total_threads(self) -> int:
        return self.blocks * self.threads

    def record(self) -> Dict[str, Any]:
        return {
            "schema": PROGRAM_SCHEMA,
            "blocks": self.blocks,
            "threads": self.threads,
            "global_words": self.global_words,
            "shared_words": self.shared_words,
            "byte_bytes": self.byte_bytes,
            "num_locks": self.num_locks,
            "stmts": [dict(s) for s in self.stmts],
            "expected": list(self.expected),
            "expected_fp_labels": list(self.expected_fp_labels),
            "note": self.note,
        }

    @classmethod
    def from_record(cls, rec: Dict[str, Any]) -> "FuzzProgram":
        return cls(
            blocks=int(rec["blocks"]),
            threads=int(rec["threads"]),
            global_words=int(rec["global_words"]),
            shared_words=int(rec["shared_words"]),
            byte_bytes=int(rec["byte_bytes"]),
            num_locks=int(rec["num_locks"]),
            stmts=tuple(dict(s) for s in rec["stmts"]),
            expected=tuple(rec.get("expected", ())),
            expected_fp_labels=tuple(rec.get("expected_fp_labels", ())),
            note=rec.get("note", ""),
        )

    def digest(self) -> str:
        payload = json.dumps(self.record(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def with_stmts(self, stmts) -> "FuzzProgram":
        """Same program with a different statement list (minimizer)."""
        return FuzzProgram(
            blocks=self.blocks, threads=self.threads,
            global_words=self.global_words, shared_words=self.shared_words,
            byte_bytes=self.byte_bytes, num_locks=self.num_locks,
            stmts=tuple(stmts), expected=self.expected,
            expected_fp_labels=self.expected_fp_labels, note=self.note)


# ---------------------------------------------------------------------------
# interpreter
# ---------------------------------------------------------------------------

def _g_index(st: Dict[str, Any], ctx, threads: int) -> int:
    span = max(1, st.get("span", 1))
    if st.get("scope", "grid") == "block":
        base = st["base"] + ctx.block_linear * threads
        idx = ctx.thread_linear
    else:
        base = st["base"]
        idx = ctx.global_tid
    return base + (idx * st.get("stride", 1) + st.get("shift", 0)) % span


def _fuzz_kernel(ctx, g, bbin, locks, threads: int, stmts):
    """One thread of a program: ``threads`` per block, running ``stmts``
    (any iterable of statement dicts, consumed once, in order)."""
    sh = ctx.shared.get("sh")
    tid = ctx.thread_linear
    for st in stmts:
        op = st["op"]
        if op == "barrier":
            yield ctx.syncthreads()
        elif op == "fence":
            # scope 1 = system (__threadfence_system): semantically inert
            # for a single device — the intra-device detector and oracle
            # treat both scopes identically — but it exercises the scope
            # plumbing the multi-GPU model keys on (docs/MULTIGPU.md)
            if st.get("scope") == 1:
                yield ctx.threadfence_system()
            else:
                yield ctx.threadfence()
        elif op == "g":
            if "only_tid" in st and st["only_tid"] != ctx.global_tid:
                continue
            if "skip_warp_of" in st and \
                    st["skip_warp_of"] // 32 == ctx.global_tid // 32:
                continue
            i = _g_index(st, ctx, threads)
            kind = st.get("kind", "write")
            if kind == "write":
                yield ctx.store(g, i, float(ctx.global_tid + 1))
            elif kind == "read":
                yield ctx.load(g, i)
            else:
                yield ctx.atomic_add(g, i, 1.0)
        elif op == "s":
            if sh is None:
                continue
            span = max(1, st.get("span", 1))
            i = st["base"] + (tid * st.get("stride", 1)
                             + st.get("shift", 0)) % span
            kind = st.get("kind", "write")
            if kind == "write":
                yield ctx.store(sh, i, float(tid))
            elif kind == "read":
                yield ctx.load(sh, i)
            else:
                yield ctx.atomic_add(sh, i, 1.0)
        elif op == "byte":
            span = max(1, st.get("span", 1))
            i = st["base"] + (ctx.global_tid + st.get("shift", 0)) % span
            if st.get("kind", "write") == "write":
                yield ctx.store(bbin, i, 1.0)
            else:
                yield ctx.load(bbin, i)
        elif op == "tree":
            if sh is None:
                continue
            barriers = st.get("barriers", ())
            yield ctx.store(sh, tid, float(tid))
            if not barriers or barriers[0]:
                yield ctx.syncthreads()
            s = threads // 2
            level = 1
            while s > 0:
                if tid < s:
                    a = yield ctx.load(sh, tid)
                    b = yield ctx.load(sh, tid + s)
                    yield ctx.store(sh, tid, a + b)
                if level >= len(barriers) or barriers[level]:
                    yield ctx.syncthreads()
                s //= 2
                level += 1
        elif op == "locked":
            if tid % max(1, st.get("mod", 16)) != 0:
                continue
            slot = st["slot"]
            lock_idx = st.get("lock", 0)
            naked = st.get("skip_tid") == ctx.global_tid
            if st.get("wrong_lock_tid") == ctx.global_tid:
                lock_idx = st.get("wrong_lock", lock_idx)
            if not naked:
                yield ctx.lock(locks, lock_idx)
            v = yield ctx.load(g, slot)
            yield ctx.compute(1)
            yield ctx.store(g, slot, v + 1.0)
            if st.get("fence", True) and not naked:
                yield ctx.threadfence()
            if not naked:
                yield ctx.unlock(locks, lock_idx)
        elif op == "div":
            if ctx.lane < 16:
                yield ctx.store(g, st["base"] + ctx.global_tid,
                                float(ctx.lane))
            else:
                yield ctx.compute(1)
        else:
            raise ValueError(f"unknown fuzz op {op!r}")


def make_kernel(program: FuzzProgram) -> Kernel:
    """Build the generic interpreter kernel for one program."""
    def kernel_fn(ctx, g, bbin, locks):
        return _fuzz_kernel(ctx, g, bbin, locks, program.threads,
                            program.stmts)
    shared = {"sh": (program.shared_words, 4)} if program.shared_words else {}
    return Kernel(kernel_fn, name=f"fuzz_{program.digest()}", shared=shared)


def program_arrays(program: FuzzProgram, mem: DeviceMemory
                   ) -> Tuple[DeviceArray, DeviceArray, DeviceArray]:
    """Allocate the kernel's global arrays ``(g, bytes, locks)`` on
    ``mem``, in the order that fixes their device addresses."""
    return (device_alloc(mem, "fuzz_g", max(1, program.global_words)),
            device_alloc(mem, "fuzz_bytes", max(1, program.byte_bytes),
                         itemsize=1),
            device_alloc(mem, "fuzz_locks", max(1, program.num_locks)))


@dataclass
class ProgramRun:
    """Arrays + trace of one recorded program execution."""

    events: List[Any] = field(default_factory=list)
    races: Optional[Any] = None  # RaceLog when a detector was attached


def run_program(program: FuzzProgram, detector_config=None,
                observers=()) -> ProgramRun:
    """Execute a program on a fresh simulator (timing off).

    ``detector_config`` attaches a live detector (used for the software
    baseline, which cannot be replayed); ``observers`` join at observer
    priority (e.g. a :class:`TraceRecorder`).
    """
    from repro.common.config import DetectionMode, scaled_gpu_config
    from repro.gpu.simulator import GPUSimulator
    from repro.harness.runner import make_detector

    sim = GPUSimulator(scaled_gpu_config(), timing_enabled=False)
    detector = None
    if detector_config is not None \
            and detector_config.mode != DetectionMode.OFF:
        detector = make_detector(detector_config, sim)
        sim.attach_detector(detector)
    for obs in observers:
        sim.add_observer(obs)

    sim.launch(make_kernel(program), grid=program.blocks,
               block=program.threads,
               args=program_arrays(program, sim.device_mem))

    run = ProgramRun()
    run.races = detector.log if detector is not None else None
    return run


def record_program(program: FuzzProgram) -> list:
    """Record one program's trace (no detector attached)."""
    from repro.harness.trace import TraceRecorder

    recorder = TraceRecorder()
    run_program(program, observers=(recorder,))
    return recorder.events
