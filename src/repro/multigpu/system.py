"""The multi-GPU system: N device simulators behind a peer interconnect.

:class:`MultiGPUSimulator` composes N single-device
:class:`~repro.gpu.simulator.GPUSimulator` instances into one system:

- **One device-memory pool.** All devices share a single
  :class:`~repro.gpu.device.DeviceMemory` (installed before any
  allocation), so the bump allocator hands out globally unique addresses
  and a peer write is genuinely visible to a later peer read.
- **Host phases.** A run is a sequence of *phases*; within a phase the
  kernels launched on different devices are logically concurrent, and the
  host synchronizes every device at the phase boundary. Devices execute
  sequentially in device order inside :meth:`run_phase` — ordering is a
  *timing* fiction, not a synchronization one: cross-device race judgment
  never compares device-local cycles.
- **Deterministic merge barrier.** Each device's
  :class:`~repro.multigpu.recorder.RemoteTrafficRecorder` is drained at
  the phase boundary and the records merged under the canonical total
  order ``(phase, cycle, device, sm_id, seq)``, so the merged stream is
  identical run to run.
- **Post-run analysis.** TLB translation (:mod:`repro.vm`), directory
  bookkeeping, peer-link pricing
  (:class:`~repro.gpu.interconnect.PeerFabric`), the directory-level
  cross-GPU detector, and the exact HB oracle all consume the canonical
  merged stream in :meth:`finalize` — never live timing effects, so the
  per-device simulations stay independent of the analysis.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import DetectionMode, GPUConfig, HAccRGConfig, scaled_gpu_config
from repro.common.errors import ConfigError
from repro.core.groundtruth import (
    CrossDeviceRace,
    MultiDeviceOracle,
    cross_device_entries,
)
from repro.gpu.device import DeviceArray, DeviceMemory
from repro.gpu.interconnect import PeerFabric
from repro.gpu.kernel import Kernel
from repro.gpu.simulator import GPUSimulator, SimulationResult
from repro.multigpu.detector import CrossGPURace, DirectoryDetector
from repro.multigpu.memory import SharedPagePool
from repro.multigpu.recorder import RemoteTrafficRecorder


def mg_gpu_config(**overrides: Any) -> GPUConfig:
    """A small per-device configuration for multi-GPU runs.

    Four SMs in two clusters per device keeps an N-device system tractable
    while still exercising block distribution; overrides pass through to
    :func:`~repro.common.config.scaled_gpu_config`.
    """
    params: Dict[str, Any] = {"num_sms": 4, "num_clusters": 2}
    params.update(overrides)
    return scaled_gpu_config(**params)


@dataclass(frozen=True)
class MGLaunch:
    """One kernel launch on one device within the current phase."""

    device: int
    kernel: Kernel
    grid: Any
    block: Any
    args: Tuple[Any, ...] = ()


@dataclass
class MultiGPUResult:
    """Everything one multi-GPU run produced (JSON-safe via record())."""

    name: str
    num_devices: int
    phases: int
    events: int
    device_stats: List[Dict[str, int]]
    device_races: List[int]
    cross_races: List[CrossDeviceRace]
    detector_reports: List[CrossGPURace]
    contradictions: List[str]
    interconnect: Dict[str, Any]
    directory: Dict[str, Any]
    tlb: List[Dict[str, Any]]
    remote_cycles: List[int]
    verified: Optional[bool] = None
    digest: str = ""

    def record(self) -> Dict[str, Any]:
        """Canonical JSON-safe record (digest covers everything else)."""
        return {
            "name": self.name,
            "num_devices": self.num_devices,
            "phases": self.phases,
            "events": self.events,
            "device_stats": self.device_stats,
            "device_races": list(self.device_races),
            "cross_races": [
                {
                    "byte": r.byte, "kind": r.kind.name,
                    "category": r.category.name, "phase": r.phase,
                    "first_device": r.first_device,
                    "second_device": r.second_device,
                    "first_tid": r.first_tid, "second_tid": r.second_tid,
                }
                for r in self.cross_races
            ],
            "detector_reports": [
                {
                    "entry": r.entry, "kind": r.kind.name,
                    "category": r.category.name, "phase": r.phase,
                    "first_device": r.first_device,
                    "second_device": r.second_device,
                    "first_tid": r.first_tid, "second_tid": r.second_tid,
                }
                for r in self.detector_reports
            ],
            "contradictions": list(self.contradictions),
            "interconnect": self.interconnect,
            "directory": self.directory,
            "tlb": self.tlb,
            "remote_cycles": list(self.remote_cycles),
            "verified": self.verified,
            "digest": self.digest,
        }


#: one merged record: (phase, cycle, device, sm_id, seq, payload)
_MergedRecord = Tuple[int, int, int, int, int, Tuple[Any, ...]]


class MultiGPUSimulator:
    """N peer GPU devices + shared pages + cross-GPU race detection."""

    def __init__(self, num_devices: int = 2,
                 gpu_config: Optional[GPUConfig] = None,
                 detector_config: Optional[HAccRGConfig] = None,
                 timing_enabled: bool = True,
                 tlb_entries: int = 16,
                 with_oracle: bool = True) -> None:
        if num_devices < 2:
            raise ConfigError("a multi-GPU system needs >= 2 devices")
        self.num_devices = num_devices
        self.config = gpu_config or mg_gpu_config()
        self.detector_config = detector_config
        self.shared_mem = DeviceMemory()
        self.pool = SharedPagePool(num_devices, self.shared_mem,
                                   tlb_entries=tlb_entries)
        self.fabric = PeerFabric(num_devices)
        granularity = (detector_config.global_granularity
                       if detector_config is not None else 4)
        self.directory_detector = DirectoryDetector(self.pool,
                                                    granularity=granularity)
        self.oracle: Optional[MultiDeviceOracle] = (
            MultiDeviceOracle() if with_oracle else None)
        self.devices: List[GPUSimulator] = []
        self.recorders: List[RemoteTrafficRecorder] = []
        self.detectors: List[Any] = []
        for _ in range(num_devices):
            sim = GPUSimulator(self.config, timing_enabled=timing_enabled)
            # the shared pool must be installed before ANY allocation so
            # every device address comes from the one bump allocator
            sim.device_mem = self.shared_mem
            recorder = RemoteTrafficRecorder()
            sim.add_observer(recorder)
            detector: Any = None
            if (detector_config is not None
                    and detector_config.mode != DetectionMode.OFF):
                from repro.harness.runner import make_detector
                detector = make_detector(detector_config, sim)
                sim.attach_detector(detector)
            self.devices.append(sim)
            self.recorders.append(recorder)
            self.detectors.append(detector)
        self.phase = 0
        self._stream: List[_MergedRecord] = []
        self._last: List[Optional[SimulationResult]] = [None] * num_devices
        self.remote_cycles: List[int] = [0] * num_devices
        self._finalized = False

    # ------------------------------------------------------------------
    # host API

    def malloc(self, name: str, length: int, itemsize: int = 4,
               home: int = 0, shared: bool = False) -> DeviceArray:
        """Allocate through the shared pool (placement-aware cudaMalloc)."""
        return self.pool.alloc(name, length, itemsize=itemsize,
                               home=home, shared=shared)

    def run_phase(self, launches: Sequence[MGLaunch]) -> None:
        """Execute one host phase and merge the devices' record streams.

        Devices run sequentially in device order (each device's launches
        in the given order); the phase boundary is the host-wide
        synchronization point the cross-GPU detectors key on.
        """
        for d in range(self.num_devices):
            for ls in launches:
                if ls.device != d:
                    continue
                self._last[d] = self.devices[d].launch(
                    ls.kernel, ls.grid, ls.block, ls.args)
        for d in range(self.num_devices):
            for cycle, sm_id, seq, payload in self.recorders[d].drain():
                self._stream.append(
                    (self.phase, cycle, d, sm_id, seq, payload))
        self.phase += 1

    # ------------------------------------------------------------------
    # analysis

    def finalize(self, name: str = "",
                 verified: Optional[bool] = None) -> MultiGPUResult:
        """Walk the canonical merged stream; price, detect, and judge."""
        if self._finalized:
            raise ConfigError("finalize() may only run once per system")
        self._finalized = True
        events = sorted(self._stream)
        current_phase = 0
        for phase, cycle, device, sm_id, seq, payload in events:
            # the stream is phase-major: flush the directory detector at
            # every phase boundary — its granule state is per-phase and
            # judgment is deferred to the host synchronization point
            while current_phase < phase:
                self.directory_detector.flush_phase(current_phase)
                current_phase += 1
            if payload[0] == "A":
                self._analyze_access(phase, cycle, device, payload)
            else:
                _, wid, scope = payload
                if self.oracle is not None:
                    self.oracle.on_fence(device, phase, wid, scope)
                self.directory_detector.on_fence(device, wid, scope)
        while current_phase < self.phase:
            self.directory_detector.flush_phase(current_phase)
            current_phase += 1
        return self._build_result(name, verified, events)

    def _analyze_access(self, phase: int, cycle: int, device: int,
                        payload: Tuple[Any, ...]) -> None:
        _, wid, bid, kind, base_tid, rows = payload
        pool = self.pool
        tlb = pool.tlbs[device]
        shadowed = self.detector_config is not None
        remote: Dict[int, int] = {}
        vpns: Dict[int, None] = {}
        shared_rows: List[Tuple[int, int, int]] = []
        # price and place each run of consecutive lanes on one page once
        for vpn, group in groupby(rows, key=lambda row: pool.vpn_of(row[1])):
            run = list(group)
            addr = run[0][1]
            tlb.access_run(addr, len(run), shadowed)
            if pool.is_shared_addr(addr):
                vpns[vpn] = None
                shared_rows.extend(run)
            home = pool.home_of_addr(addr)
            if home is not None and home != device:
                remote[home] = (remote.get(home, 0)
                                + sum(size for _, _, size in run))
        for vpn in vpns:
            self.directory.note_access(vpn, device, kind)
        for home, nbytes in sorted(remote.items()):
            self.remote_cycles[device] += self.fabric.remote_access_cycles(
                device, home, nbytes, kind != 0, cycle)
        if shared_rows:
            if self.oracle is not None:
                self.oracle.on_access(device, phase, wid, bid, kind,
                                      base_tid, shared_rows)
            self.directory_detector.on_access(device, wid, bid, kind,
                                              base_tid, shared_rows)

    @property
    def directory(self) -> Any:
        return self.pool.directory

    def _build_result(self, name: str, verified: Optional[bool],
                      events: List[_MergedRecord]) -> MultiGPUResult:
        cross_races: List[CrossDeviceRace] = []
        if self.oracle is not None:
            cross_races = self.oracle.finish()
        contradictions = self._diff(cross_races)
        device_stats: List[Dict[str, int]] = []
        device_races: List[int] = []
        for d, sim in enumerate(self.devices):
            stats = sim.metrics.total_stats()
            last = self._last[d]
            device_stats.append({
                "cycles": int(last.cycles) if last else 0,
                "instructions": int(stats.instructions),
                "global_reads": int(stats.global_reads),
                "global_writes": int(stats.global_writes),
                "atomics": int(stats.atomics),
                "fences": int(stats.fences),
                "barriers": int(stats.barriers),
            })
            detector = self.detectors[d]
            log = getattr(detector, "log", None)
            device_races.append(len(log) if log is not None else 0)
        result = MultiGPUResult(
            name=name,
            num_devices=self.num_devices,
            phases=self.phase,
            events=len(events),
            device_stats=device_stats,
            device_races=device_races,
            cross_races=cross_races,
            detector_reports=list(self.directory_detector.reports),
            contradictions=contradictions,
            interconnect={
                "links": self.fabric.records(),
                "total_bytes": int(self.fabric.total_bytes()),
                "total_transfers": int(self.fabric.total_transfers()),
            },
            directory=self.pool.directory.record(),
            tlb=self.pool.tlb_record(),
            remote_cycles=list(self.remote_cycles),
            verified=verified,
        )
        result.digest = _digest(result, events)
        return result

    def _diff(self, cross_races: List[CrossDeviceRace]) -> List[str]:
        """Oracle-vs-directory-detector disagreements at entry level."""
        if self.oracle is None:
            return []
        oracle_keys = cross_device_entries(
            cross_races, self.directory_detector.granularity)
        detector_keys = self.directory_detector.entry_keys()
        out: List[str] = []
        for key in sorted(oracle_keys - detector_keys):
            out.append(f"oracle-only: {key[0]} entry {key[1]}")
        for key in sorted(detector_keys - oracle_keys):
            out.append(f"detector-only: {key[0]} entry {key[1]}")
        return out


def _digest(result: MultiGPUResult, events: List[_MergedRecord]) -> str:
    """Bit-identity fingerprint: canonical stream + canonical record."""
    # one update over the joined reprs: SHA-256 streams, so these are
    # the same bytes as one update per event
    h = hashlib.sha256("".join(map(repr, events)).encode("utf-8"))
    record = result.record()
    record.pop("digest", None)
    h.update(json.dumps(record, sort_keys=True).encode("utf-8"))
    return h.hexdigest()
