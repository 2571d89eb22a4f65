"""Multi-GPU simulation: peer devices, shared pages, cross-GPU detection.

The package composes N single-device :class:`~repro.gpu.simulator.GPUSimulator`
instances into one :class:`MultiGPUSimulator` (``system.py``) behind a
cycle-priced peer interconnect (:class:`~repro.gpu.interconnect.PeerFabric`)
and a home-node page directory. Device memory is a single shared pool so
peer-mapped and unified pages are real shared state; per-device page
tables + TLBs (:mod:`repro.vm`) decide locality, and a directory-level
cross-GPU detector (``detector.py``) plus an exact byte-granularity HB
oracle extension (:class:`repro.core.groundtruth.MultiDeviceOracle`) judge
cross-device races. See ``docs/MULTIGPU.md``.
"""

from repro.multigpu.bench import (
    MG_BENCHMARKS,
    MG_INJECTION_CATALOG,
    MGInjectionSpec,
    get_mg_benchmark,
)
from repro.multigpu.detector import CrossGPURace, DirectoryDetector
from repro.multigpu.memory import SharedPagePool
from repro.multigpu.recorder import RemoteTrafficRecorder
from repro.multigpu.runner import run_mg_benchmark, run_mg_record
from repro.multigpu.system import (
    MGLaunch,
    MultiGPUResult,
    MultiGPUSimulator,
    mg_gpu_config,
)

__all__ = [
    "MG_BENCHMARKS",
    "MG_INJECTION_CATALOG",
    "MGInjectionSpec",
    "MGLaunch",
    "MultiGPUResult",
    "MultiGPUSimulator",
    "CrossGPURace",
    "DirectoryDetector",
    "RemoteTrafficRecorder",
    "SharedPagePool",
    "get_mg_benchmark",
    "mg_gpu_config",
    "run_mg_benchmark",
    "run_mg_record",
]
