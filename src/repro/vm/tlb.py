"""The two shadow-translation TLB mechanisms of paper §IV-B.

Every global memory access needs two translations: the application address
and its shadow address. The paper proposes:

- :class:`TaggedTLB` — append one bit to each TLB tag (0 = regular page,
  1 = shadow page) and look both kinds up in the *same* structure. No new
  hardware, but shadow entries "can potentially reduce the effective TLB
  capacity for regular (non-shadow) memory entries".
- :class:`SplitTLB` — keep the regular TLB unchanged and add a separate,
  smaller shadow TLB probed in parallel ("Shadow memory TLB can be smaller
  than the regular TLB since all GPU pages do not belong to the global
  memory space. This approach provides faster TLB accesses").

Both share the fully-associative-per-set LRU machinery of the cache model;
misses walk the page table (allocating shadow pages on demand).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.common.errors import ConfigError
from repro.vm.page_table import PageTable


@dataclass
class TLBStats:
    """Hit/miss counters, split by translation kind."""

    app_accesses: int = 0
    app_hits: int = 0
    shadow_accesses: int = 0
    shadow_hits: int = 0
    walks: int = 0

    @property
    def app_miss_rate(self) -> float:
        return (1 - self.app_hits / self.app_accesses
                if self.app_accesses else 0.0)

    @property
    def shadow_miss_rate(self) -> float:
        return (1 - self.shadow_hits / self.shadow_accesses
                if self.shadow_accesses else 0.0)

    @property
    def total_miss_rate(self) -> float:
        acc = self.app_accesses + self.shadow_accesses
        hits = self.app_hits + self.shadow_hits
        return 1 - hits / acc if acc else 0.0

    def merge(self, other: "TLBStats") -> None:
        """Accumulate another stats record into this one (in place)."""
        self.app_accesses += other.app_accesses
        self.app_hits += other.app_hits
        self.shadow_accesses += other.shadow_accesses
        self.shadow_hits += other.shadow_hits
        self.walks += other.walks

    def record(self) -> Dict[str, Any]:
        """JSON-safe export: raw counters plus the derived miss rates.

        This is the shape :class:`~repro.events.metrics.MetricsCollector`
        carries and ``RunResult.tlb`` serializes — keep keys stable.
        """
        return {
            "app_accesses": int(self.app_accesses),
            "app_hits": int(self.app_hits),
            "shadow_accesses": int(self.shadow_accesses),
            "shadow_hits": int(self.shadow_hits),
            "walks": int(self.walks),
            "app_miss_rate": float(self.app_miss_rate),
            "shadow_miss_rate": float(self.shadow_miss_rate),
            "total_miss_rate": float(self.total_miss_rate),
        }

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "TLBStats":
        return TLBStats(
            app_accesses=int(record["app_accesses"]),
            app_hits=int(record["app_hits"]),
            shadow_accesses=int(record["shadow_accesses"]),
            shadow_hits=int(record["shadow_hits"]),
            walks=int(record["walks"]),
        )


class _LRUArray:
    """Small fully-associative LRU translation array."""

    def __init__(self, entries: int) -> None:
        self.capacity = entries
        self._slots: dict = {}  # key -> lru tick
        self._tick = 0

    def lookup(self, key) -> bool:
        self._tick += 1
        if key in self._slots:
            self._slots[key] = self._tick
            return True
        return False

    def insert(self, key) -> None:
        self._tick += 1
        if key not in self._slots and len(self._slots) >= self.capacity:
            victim = min(self._slots, key=self._slots.get)
            del self._slots[victim]
        self._slots[key] = self._tick

    def repeat_hits(self, keys: Tuple[Any, ...], times: int) -> None:
        """``times`` rounds of hitting lookups of the resident ``keys``,
        in order: only the ticks of the last round survive."""
        self._tick += len(keys) * times
        tick = self._tick - len(keys)
        for key in keys:
            tick += 1
            self._slots[key] = tick

    def resident(self) -> int:
        return len(self._slots)


class TaggedTLB:
    """Mechanism (a): shadow translations share the TLB via a 1-bit tag."""

    #: cycles per probe; both translation kinds are serialized through the
    #: single structure, so a global access probes twice
    lookup_cycles = 1

    def __init__(self, entries: int, page_table: PageTable) -> None:
        if entries < 1:
            raise ConfigError("TLB needs at least one entry")
        self._array = _LRUArray(entries)
        self._pt = page_table
        self.stats = TLBStats()

    def translate(self, vaddr: int) -> Tuple[int, int]:
        """App translation; returns (paddr, cycles)."""
        self.stats.app_accesses += 1
        key = (0, self._pt.vpn_of(vaddr))
        cycles = self.lookup_cycles
        if self._array.lookup(key):
            self.stats.app_hits += 1
        else:
            self.stats.walks += 1
            cycles += PAGE_WALK_CYCLES
            self._array.insert(key)
        paddr, _ = self._pt.translate(vaddr)
        return paddr, cycles

    def shadow_translate(self, vaddr: int) -> Tuple[int, int]:
        """Shadow translation through the same array (tag bit = 1)."""
        self.stats.shadow_accesses += 1
        key = (1, self._pt.vpn_of(vaddr))
        cycles = self.lookup_cycles
        if self._array.lookup(key):
            self.stats.shadow_hits += 1
        else:
            self.stats.walks += 1
            cycles += PAGE_WALK_CYCLES
            self._array.insert(key)
        paddr, _ = self._pt.shadow_translate(vaddr)
        return paddr, cycles

    def access_cycles(self, vaddr: int) -> int:
        """One detected global access: app + shadow, serialized."""
        _, c1 = self.translate(vaddr)
        _, c2 = self.shadow_translate(vaddr)
        return c1 + c2

    def access_run(self, vaddr: int, count: int, shadowed: bool) -> int:
        """``count`` accesses in a row to the page of ``vaddr``.

        Equivalent to ``count`` calls of :meth:`access_cycles`
        (``shadowed``) or of :meth:`translate`, and returns their summed
        cycles. Only the first access can miss: with two or more entries
        it leaves every key of the page resident, so the rest are hits
        whose counters and LRU ticks are applied in one step.
        """
        def one() -> int:
            if shadowed:
                return self.access_cycles(vaddr)
            return self.translate(vaddr)[1]

        if self._array.capacity < 2:
            return sum(one() for _ in range(count))
        cycles = one()
        rest = count - 1
        if rest < 1:
            return cycles
        vpn = self._pt.vpn_of(vaddr)
        keys = ((0, vpn), (1, vpn)) if shadowed else ((0, vpn),)
        self.stats.app_accesses += rest
        self.stats.app_hits += rest
        if shadowed:
            self.stats.shadow_accesses += rest
            self.stats.shadow_hits += rest
        self._array.repeat_hits(keys, rest)
        return cycles + rest * len(keys) * self.lookup_cycles


class SplitTLB:
    """Mechanism (b): a dedicated (smaller) shadow TLB probed in parallel."""

    lookup_cycles = 1

    def __init__(self, entries: int, shadow_entries: int,
                 page_table: PageTable) -> None:
        if entries < 1 or shadow_entries < 1:
            raise ConfigError("TLB needs at least one entry")
        self._app = _LRUArray(entries)
        self._shadow = _LRUArray(shadow_entries)
        self._pt = page_table
        self.stats = TLBStats()

    def translate(self, vaddr: int) -> Tuple[int, int]:
        self.stats.app_accesses += 1
        key = self._pt.vpn_of(vaddr)
        cycles = self.lookup_cycles
        if self._app.lookup(key):
            self.stats.app_hits += 1
        else:
            self.stats.walks += 1
            cycles += PAGE_WALK_CYCLES
            self._app.insert(key)
        paddr, _ = self._pt.translate(vaddr)
        return paddr, cycles

    def shadow_translate(self, vaddr: int) -> Tuple[int, int]:
        self.stats.shadow_accesses += 1
        key = self._pt.vpn_of(vaddr)
        cycles = self.lookup_cycles
        if self._shadow.lookup(key):
            self.stats.shadow_hits += 1
        else:
            self.stats.walks += 1
            cycles += PAGE_WALK_CYCLES
            self._shadow.insert(key)
        paddr, _ = self._pt.shadow_translate(vaddr)
        return paddr, cycles

    def access_cycles(self, vaddr: int) -> int:
        """One detected global access: the two probes run in parallel."""
        _, c1 = self.translate(vaddr)
        _, c2 = self.shadow_translate(vaddr)
        return max(c1, c2)


#: cycles to walk the page table on a TLB miss
PAGE_WALK_CYCLES = 100
