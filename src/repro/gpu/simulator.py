"""Top-level GPU simulator: block dispatch and global-time advancement.

:class:`GPUSimulator` owns the SM array, the memory system, the device
memory, the lock table, and the :class:`~repro.events.bus.EventBus` through
which everything observes the run. Kernel launches dispatch blocks
round-robin across SMs (respecting residency limits) and the run loop
always advances the SM with the smallest local cycle, keeping memory-system
arrival times near-monotonic so DRAM queueing and bandwidth accounting stay
meaningful.

Consumers attach to the bus rather than to the simulator internals: a race
detector subscribes (through the :class:`~repro.gpu.hooks.HooksSubscriber`
adapter) at detector priority via :meth:`GPUSimulator.attach_detector`;
passive observers (tracers, parity checkers, experiment probes) via
:meth:`GPUSimulator.add_observer`; and the always-present
:class:`~repro.events.metrics.MetricsCollector` rides at metrics priority
and owns every dynamic statistic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.common.config import GPUConfig
from repro.common.errors import SimulationError
from repro.common.types import Dim3, KernelStats
from repro.events import (
    EventBus,
    KernelEnded,
    KernelStarted,
    MetricsCollector,
    PhaseStats,
    Subscriber,
)
from repro.events.bus import PRIORITY_DETECTOR, PRIORITY_METRICS, PRIORITY_OBSERVER
from repro.gpu.atomics import LockTable
from repro.gpu.block import ThreadBlock
from repro.gpu.device import DeviceArray, DeviceMemory, device_alloc
from repro.gpu.hooks import NULL_DETECTOR, DetectorHooks, HooksSubscriber
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.gpu.sm import StreamingMultiprocessor
from repro.memory.system import MemorySystem


@dataclass
class SimulationResult:
    """Outcome of one kernel launch."""

    cycles: int
    stats: KernelStats
    dram_utilization: float
    dram_bytes: int
    dram_shadow_bytes: int
    l1_hit_rate: float
    l2_hit_rate: float
    sm_cycles: List[int] = field(default_factory=list)
    blocks_run: int = 0
    phases: Optional[PhaseStats] = None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationResult(cycles={self.cycles}, "
            f"instr={self.stats.instructions}, "
            f"dram_util={self.dram_utilization:.3f})"
        )


class GPUSimulator:
    """The whole GPU: SMs + memory system + event bus + device memory."""

    def __init__(self, config: Optional[GPUConfig] = None,
                 detector: Optional[DetectorHooks] = None,
                 timing_enabled: bool = True) -> None:
        self.config = config or GPUConfig()
        self.timing_enabled = timing_enabled
        self.device_mem = DeviceMemory()
        self.memory = MemorySystem(self.config, timing_enabled=timing_enabled)
        self.lock_table = LockTable()
        self.bus = EventBus()
        self.metrics = self.bus.subscribe(
            MetricsCollector(issue_width_cycles=self.config.warp_issue_cycles),
            PRIORITY_METRICS,
        )
        self.detector: DetectorHooks = NULL_DETECTOR
        self._detector_sub: Optional[HooksSubscriber] = None
        self.warp_regrouping = False
        self.sync_id_lazy = True
        if detector is not None:
            self.attach_detector(detector)
        self.sms = [
            StreamingMultiprocessor(i, self.config, self)
            for i in range(self.config.num_sms)
        ]
        self._pending_blocks: List[ThreadBlock] = []
        self._launch: Optional[KernelLaunch] = None
        self._blocks_run = 0

    # ------------------------------------------------------------------
    # host API

    def malloc(self, name: str, length: int, itemsize: int = 4) -> DeviceArray:
        """``cudaMalloc``: allocate a global array and return its view."""
        return device_alloc(self.device_mem, name, length, itemsize)

    def attach_detector(self, detector: DetectorHooks) -> None:
        """Install a race detector before launching (replaces the current one).

        The detector is bridged onto the event bus at detector priority so
        it observes every event before passive observers and the metrics
        collector.
        """
        if self._detector_sub is not None:
            self.bus.unsubscribe(self._detector_sub)
        self.detector = detector
        self._detector_sub = HooksSubscriber(detector)
        self.bus.subscribe(self._detector_sub, PRIORITY_DETECTOR)
        self.warp_regrouping = getattr(
            getattr(detector, "config", None), "warp_regrouping", False
        )
        self.sync_id_lazy = getattr(
            getattr(detector, "config", None), "sync_id_lazy_increment", True
        )

    def add_observer(self, subscriber: Subscriber,
                     priority: int = PRIORITY_OBSERVER) -> Subscriber:
        """Subscribe a passive observer (tracer, probe) to the event bus."""
        return self.bus.subscribe(subscriber, priority)

    def remove_observer(self, subscriber: Subscriber) -> bool:
        """Detach a previously added observer."""
        return self.bus.unsubscribe(subscriber)

    def launch(self, kernel: Kernel, grid, block, args: Sequence[Any] = ()
               ) -> SimulationResult:
        """Run ``kernel<<<grid, block>>>(*args)`` to completion."""
        launch = KernelLaunch(kernel, Dim3.of(grid), Dim3.of(block), tuple(args))
        return self.run(launch)

    # ------------------------------------------------------------------

    def run(self, launch: KernelLaunch) -> SimulationResult:
        """Execute one kernel launch and return its simulation result.

        Blocks dispatch round-robin up to residency limits, then the loop
        always steps the SM with the smallest local cycle (ties by SM id).
        """
        if launch.threads_per_block > self.config.max_threads_per_sm:
            raise SimulationError(
                f"block of {launch.threads_per_block} threads exceeds SM "
                f"capacity {self.config.max_threads_per_sm}"
            )
        self._launch = launch
        self._blocks_run = 0
        self.bus.emit_kernel_start(
            KernelStarted(launch=launch, device_mem=self.device_mem)
        )

        self._pending_blocks = [
            ThreadBlock(launch, bid, self.config.warp_size,
                        self.config.shared_mem_per_sm)
            for bid in range(launch.num_blocks)
        ]
        # initial dispatch: fill every SM round-robin up to residency limits
        progress = True
        while self._pending_blocks and progress:
            progress = False
            for sm in self.sms:
                if self._pending_blocks and sm.can_accept(launch):
                    sm.admit(self._pending_blocks.pop(0))
                    self._blocks_run += 1
                    progress = True

        # global loop: always advance the laggard SM
        heap = [(sm.cycle, sm.sm_id) for sm in self.sms if sm.active]
        heapq.heapify(heap)
        while heap:
            _, sm_id = heapq.heappop(heap)
            sm = self.sms[sm_id]
            if not sm.active:
                continue
            sm.step()
            if sm.active:
                heapq.heappush(heap, (sm.cycle, sm_id))

        self.bus.emit_kernel_end(KernelEnded())
        return self._collect()

    def on_block_retired(self, sm: StreamingMultiprocessor) -> None:
        """SM callback: a block retired; dispatch a pending one if possible."""
        if self._pending_blocks and self._launch is not None:
            if sm.can_accept(self._launch):
                sm.admit(self._pending_blocks.pop(0))
                self._blocks_run += 1

    # ------------------------------------------------------------------

    def _collect(self) -> SimulationResult:
        """Assemble the launch result from the live SMs and collectors."""
        stats = self.metrics.total_stats()
        sm_cycles = [sm.cycle for sm in self.sms]
        cycles = max(sm_cycles, default=0)
        l1_acc, l1_hit, _ = self.memory.l1_stats_total()
        l2_acc, l2_hit, _ = self.memory.l2_stats_total()
        return SimulationResult(
            cycles=cycles,
            stats=stats,
            dram_utilization=self.memory.dram_utilization(cycles),
            dram_bytes=self.memory.dram_bytes(),
            dram_shadow_bytes=self.memory.dram_shadow_bytes(),
            l1_hit_rate=l1_hit / l1_acc if l1_acc else 0.0,
            l2_hit_rate=l2_hit / l2_acc if l2_acc else 0.0,
            sm_cycles=sm_cycles,
            blocks_run=self._blocks_run,
            phases=self.metrics.snapshot(
                shadow_traffic_bytes=self.memory.shadow_traffic_bytes()
            ),
        )
