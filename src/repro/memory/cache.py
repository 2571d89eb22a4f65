"""Set-associative cache model with LRU replacement.

Used for both the per-SM L1 data caches (non-coherent, write-through,
write-evict on store hits — the Fermi policy the paper assumes) and the L2
slices (write-back with dirty eviction). The model tracks tags only — data
values live in the functional store — plus per-line dirty and shadow flags.
The shadow flag marks lines holding HAccRG shadow entries so that pollution
statistics can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.bitops import is_power_of_two, log2_exact
from repro.common.errors import ConfigError


@dataclass
class CacheStats:
    """Hit/miss/eviction counters, split by regular vs shadow traffic."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    shadow_accesses: int = 0
    shadow_hits: int = 0
    shadow_resident_peak: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class _Line:
    __slots__ = ("tag", "dirty", "shadow", "lru")

    def __init__(self) -> None:
        self.tag = -1
        self.dirty = False
        self.shadow = False
        self.lru = 0


class Cache:
    """One set-associative cache with true-LRU replacement.

    ``lookup``/``fill`` are split so callers can model different allocate
    policies; ``access`` is the common read path (lookup + allocate on miss,
    returning the evicted dirty line base if any).
    """

    def __init__(self, size: int, assoc: int, line_size: int,
                 name: str = "cache") -> None:
        if size % (assoc * line_size):
            raise ConfigError(
                f"{name}: size {size} not divisible by assoc*line ({assoc}x{line_size})"
            )
        if not is_power_of_two(line_size):
            raise ConfigError(f"{name}: line size must be a power of two")
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = size // (assoc * line_size)
        self.name = name
        self._line_shift = log2_exact(line_size)
        # a set's lines are built on its first access; until then it is None
        # and reads as empty (an untouched L2 slice never builds any)
        self._sets: List[Optional[List[_Line]]] = [None] * self.num_sets
        self._tick = 0
        self.stats = CacheStats()
        self._shadow_resident = 0

    # ------------------------------------------------------------------

    def _set_index(self, addr: int) -> Tuple[int, int]:
        block = addr >> self._line_shift
        return block % self.num_sets, block

    def probe(self, addr: int) -> bool:
        """Tag check without any state change (used for coherence checks)."""
        idx, tag = self._set_index(addr)
        return any(l.tag == tag for l in self._sets[idx] or ())

    def access(self, addr: int, is_write: bool = False,
               shadow: bool = False, allocate: bool = True
               ) -> Tuple[bool, Optional[int], bool]:
        """Look up the line holding ``addr``.

        Returns ``(hit, writeback_addr, writeback_was_shadow)`` where
        ``writeback_addr`` is the base address of a dirty line evicted to
        make room (None otherwise) and the flag records whether that
        victim held shadow entries. On a write hit the line is marked
        dirty.
        """
        self._tick += 1
        self.stats.accesses += 1
        if shadow:
            self.stats.shadow_accesses += 1
        idx, tag = self._set_index(addr)
        lines = self._sets[idx]
        if lines is None:
            lines = self._sets[idx] = [_Line() for _ in range(self.assoc)]
        for line in lines:
            if line.tag == tag:
                self.stats.hits += 1
                if shadow:
                    self.stats.shadow_hits += 1
                line.lru = self._tick
                if is_write:
                    line.dirty = True
                return True, None, False

        self.stats.misses += 1
        if not allocate:
            return False, None, False
        victim = min(lines, key=lambda l: l.lru)
        writeback = None
        writeback_shadow = False
        if victim.tag >= 0:
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
                writeback = victim.tag << self._line_shift
                writeback_shadow = victim.shadow
            if victim.shadow:
                self._shadow_resident -= 1
        victim.tag = tag
        victim.dirty = is_write
        victim.shadow = shadow
        victim.lru = self._tick
        if shadow:
            self._shadow_resident += 1
            self.stats.shadow_resident_peak = max(
                self.stats.shadow_resident_peak, self._shadow_resident
            )
        return False, writeback, writeback_shadow

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr`` if present (write-evict L1 policy)."""
        idx, tag = self._set_index(addr)
        for line in self._sets[idx] or ():
            if line.tag == tag:
                if line.shadow:
                    self._shadow_resident -= 1
                line.tag = -1
                line.dirty = False
                line.shadow = False
                return True
        return False

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines dropped."""
        dirty = 0
        for s in self._sets:
            for line in s or ():
                if line.tag >= 0 and line.dirty:
                    dirty += 1
                line.tag = -1
                line.dirty = False
                line.shadow = False
        self._shadow_resident = 0
        return dirty

    def resident_lines(self) -> int:
        return sum(1 for s in self._sets for l in s or () if l.tag >= 0)
