"""The §IV-B virtual-memory experiment: tagged vs split shadow TLBs.

Drives the benchmark suite's *global-memory address traces* through both
proposed TLB mechanisms at equal regular-TLB capacity and reports miss
rates and translation cycles. The qualitative claims to reproduce: the
1-bit-tag scheme costs regular-entry capacity (its application miss rate
rises once shadow translations compete), the split scheme is faster, and
a smaller shadow TLB suffices because only global-space pages have
shadows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.types import MemSpace
from repro.events import Subscriber
from repro.events.records import AccessIssued
from repro.harness.experiments import RACE_FREE_OVERRIDES
from repro.vm.page_table import PageTable
from repro.vm.tlb import SplitTLB, TaggedTLB


class _TraceCollector(Subscriber):
    """Bus observer that records the global-access address stream of a run."""

    def __init__(self) -> None:
        self.addrs: List[int] = []

    def on_access(self, ev: AccessIssued):
        if ev.access.space == MemSpace.GLOBAL:
            self.addrs.extend(la.addr for la in ev.access.lanes)
        return None


class TLBProbe(Subscriber):
    """Observer that models address translation for one live run.

    Feeds every global-memory lane address through a :class:`TaggedTLB`
    backed by an on-demand page table (pages map on first touch, same
    policy as real lazy allocation). With ``shadowed=True`` the probe
    prices the detector's paired app+shadow lookup
    (:meth:`TaggedTLB.access_cycles`); otherwise only the application
    translation. The benchmark runner harvests :meth:`tlb_record` into
    ``MetricsCollector.note_tlb``, which is how the statistics reach
    ``RunResult.tlb``, the JSON export, and the CLI summary line.
    """

    def __init__(self, entries: int = 16, page_size: int = 4096,
                 shadowed: bool = False) -> None:
        self._page_size = page_size
        self._pt = PageTable(page_size)
        self._tlb = TaggedTLB(entries, self._pt)
        self._shadowed = shadowed
        self._mapped: set = set()
        #: total modeled translation cycles over the run
        self.translation_cycles = 0

    def on_access(self, ev: AccessIssued):
        if ev.access.space != MemSpace.GLOBAL:
            return None
        for la in ev.access.lanes:
            vpn = la.addr // self._page_size
            if vpn not in self._mapped:
                self._mapped.add(vpn)
                self._pt.map_range(vpn * self._page_size, self._page_size,
                                   is_global=True)
            if self._shadowed:
                self.translation_cycles += self._tlb.access_cycles(la.addr)
            else:
                _, cycles = self._tlb.translate(la.addr)
                self.translation_cycles += cycles
        return None

    def tlb_record(self):
        """JSON-safe ``TLBStats.record()`` snapshot (runner harvest hook)."""
        return self._tlb.stats.record()


@dataclass
class VMTLBRow:
    name: str
    accesses: int
    tagged_app_miss: float
    tagged_total_miss: float
    tagged_cycles: int
    split_app_miss: float
    split_total_miss: float
    split_cycles: int
    shadow_pages: int
    app_pages: int


def collect_global_trace(name: str, scale: float = 1.0) -> List[int]:
    """Run a benchmark with a trace-collecting hook; return its stream."""
    collector = _TraceCollector()
    from repro.common.config import scaled_gpu_config
    from repro.gpu.simulator import GPUSimulator
    from repro.bench.suite import get_benchmark

    sim = GPUSimulator(scaled_gpu_config(), timing_enabled=False)
    sim.add_observer(collector)
    plan = get_benchmark(name).plan(
        sim, scale=scale, **RACE_FREE_OVERRIDES.get(name, {})
    )
    plan.run(sim)
    return collector.addrs


def cyclic_trace(pages: int, page_size: int, rounds: int = 16) -> List[int]:
    """Synthetic TLB-capacity probe: cycle over ``pages`` pages.

    Real kernels stream (high page locality), which hides TLB capacity;
    the classic cyclic sweep exposes it: once the combined app+shadow
    working set exceeds the tagged TLB, LRU thrashes every probe.
    """
    return [p * page_size for _ in range(rounds) for p in range(pages)]


def vm_tlb_study(names: Sequence[str] = ("REDUCE", "HIST", "KMEANS",
                                         "PSUM"),
                 tlb_entries: int = 16,
                 shadow_entries: int = 8,
                 page_size: int = 4096,
                 scale: float = 1.0) -> List[VMTLBRow]:
    """Compare the two shadow-translation mechanisms.

    Benchmarks provide real (stream-local) traces; the synthetic CYCLIC
    row cycles over exactly ``tlb_entries`` pages to expose the tagged
    mechanism's capacity loss.
    """
    rows = []
    traces = {name: collect_global_trace(name, scale=scale)
              for name in names}
    traces["CYCLIC"] = cyclic_trace(tlb_entries, page_size)
    for name, trace in traces.items():
        span = max(trace) + 4 if trace else 4

        pt_tagged = PageTable(page_size)
        pt_tagged.map_range(0, span, is_global=True)
        tagged = TaggedTLB(tlb_entries, pt_tagged)
        tagged_cycles = sum(tagged.access_cycles(a) for a in trace)

        pt_split = PageTable(page_size)
        pt_split.map_range(0, span, is_global=True)
        split = SplitTLB(tlb_entries, shadow_entries, pt_split)
        split_cycles = sum(split.access_cycles(a) for a in trace)

        rows.append(VMTLBRow(
            name=name,
            accesses=len(trace),
            tagged_app_miss=tagged.stats.app_miss_rate,
            tagged_total_miss=tagged.stats.total_miss_rate,
            tagged_cycles=tagged_cycles,
            split_app_miss=split.stats.app_miss_rate,
            split_total_miss=split.stats.total_miss_rate,
            split_cycles=split_cycles,
            shadow_pages=pt_split.shadow_pages_allocated,
            app_pages=pt_split.app_pages_allocated,
        ))
    return rows


def render_vm_tlb(rows: List[VMTLBRow]) -> str:
    out = [
        "VIRTUAL MEMORY: TAGGED vs SPLIT SHADOW TLB (paper IV-B)",
        "-" * 78,
        f"{'Bench':8s} {'accesses':>9s} {'tag app-miss':>13s} "
        f"{'split app-miss':>15s} {'tag cyc':>9s} {'split cyc':>10s} "
        f"{'shadow pg':>10s}",
    ]
    for r in rows:
        out.append(
            f"{r.name:8s} {r.accesses:>9d} {r.tagged_app_miss:>12.1%} "
            f"{r.split_app_miss:>14.1%} {r.tagged_cycles:>9d} "
            f"{r.split_cycles:>10d} {r.shadow_pages:>10d}"
        )
    return "\n".join(out)
