"""Tracking granularity: byte address -> shadow entry mapping (paper §IV-C).

One shadow entry covers ``granularity`` consecutive bytes of the tracked
space. One-to-one mapping (granularity == element size) reports no false
positives; coarser mappings can merge accesses from different threads into
one entry and report false races, trading accuracy for shadow storage —
the Table III experiment.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.common.bitops import ceil_div, is_power_of_two, log2_exact
from repro.common.errors import ConfigError


class GranularityMap:
    """Address <-> entry arithmetic for one tracked region."""

    def __init__(self, granularity: int) -> None:
        if not is_power_of_two(granularity):
            raise ConfigError("granularity must be a power of two")
        self.granularity = granularity
        self._shift = log2_exact(granularity)

    def entry_of(self, addr: int) -> int:
        """Shadow entry index covering byte ``addr``."""
        return addr >> self._shift

    def entries_of_range(self, addr: int, size: int) -> range:
        """Entry indices covering the byte range [addr, addr+size)."""
        first = addr >> self._shift
        last = (addr + size - 1) >> self._shift
        return range(first, last + 1)

    def num_entries(self, region_bytes: int) -> int:
        """Entries needed to cover a region of ``region_bytes`` bytes."""
        return ceil_div(region_bytes, self.granularity)

    def base_addr(self, entry: int) -> int:
        """First byte address covered by ``entry``."""
        return entry << self._shift

    def lanes_to_entries(self, lanes: Iterable[Any]) -> List[Tuple[int, object]]:
        """Flatten lane accesses to (entry, lane) pairs, in lane order.

        A lane whose footprint spans multiple entries contributes one pair
        per entry (matching the hardware generating one shadow check per
        covered entry).
        """
        shift = self._shift
        out: List[Tuple[int, object]] = []
        for la in lanes:
            first = la.addr >> shift
            last = (la.addr + la.size - 1) >> shift
            if first == last:
                out.append((first, la))
            else:
                out.extend((e, la) for e in range(first, last + 1))
        return out

    def distinct_entries(self, lanes: Sequence[Any],
                         kind: Any) -> Optional[List[int]]:
        """Each lane's entry, in lane order, when every lane has ``kind``,
        is covered by exactly one entry and no two lanes share one;
        None otherwise.

        No two lanes of such an access can overlap, so the associative
        same-instruction WAW check cannot fire and each lane is one
        independent state-machine step.
        """
        shift = self._shift
        entries = [la.addr >> shift for la in lanes]
        if len(set(entries)) != len(entries):
            return None
        for la, e in zip(lanes, entries):
            if la.kind != kind or (la.addr + la.size - 1) >> shift != e:
                return None
        return entries
