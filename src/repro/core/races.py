"""Typed race reports and the deduplicating race log.

HAccRG reports a race when a shadow-entry check fails. The same program bug
typically trips the same shadow entry many times (every loop iteration,
every thread of a warp), so raw trip counts are noisy; the paper reports
*data races* — distinct conflicting (location, kind) pairs. :class:`RaceLog`
therefore deduplicates by ``(space, entry, kind, category)``, while keeping
the raw trip count for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.types import MemSpace, RaceCategory, RaceKind


@dataclass(frozen=True)
class RaceReport:
    """One detected data race (first trip of its dedup group)."""

    category: RaceCategory
    kind: RaceKind
    space: MemSpace
    entry: int            # shadow entry index (location / granularity)
    addr: int             # byte address of the tripping access
    owner_tid: int        # thread recorded in the shadow entry
    access_tid: int       # thread whose access tripped the check
    owner_block: int = -1
    access_block: int = -1
    pc: int = 0
    cycle: int = 0
    stale_l1: bool = False  # §IV-B L1-hit stale-read coherence race

    def describe(self) -> str:
        """One-line human-readable description."""
        where = "shared" if self.space == MemSpace.SHARED else "global"
        extra = " (stale L1 read)" if self.stale_l1 else ""
        return (
            f"{self.kind.name} race in {where} memory @ entry {self.entry} "
            f"(addr {self.addr:#x}): thread {self.owner_tid} "
            f"(block {self.owner_block}) vs thread {self.access_tid} "
            f"(block {self.access_block}), {self.category.name}{extra}"
        )


class RaceLog:
    """Collects race reports with paper-style deduplication."""

    def __init__(self) -> None:
        self.reports: List[RaceReport] = []
        self.trip_counts: Dict[Tuple, int] = {}
        self._seen: Set[Tuple] = set()
        self._pair_keys: Set[Tuple] = set()

    @staticmethod
    def _key(r: RaceReport) -> Tuple:
        return (r.space, r.entry, r.kind, r.category)

    @staticmethod
    def _pair_key(r: RaceReport) -> Tuple:
        return (r.space, r.entry, r.kind, r.category,
                r.owner_tid, r.access_tid)

    def report(self, race: RaceReport) -> bool:
        """Record a race trip; returns True if it is a *new* distinct race."""
        key = self._key(race)
        self.trip_counts[key] = self.trip_counts.get(key, 0) + 1
        self._pair_keys.add(self._pair_key(race))
        if key in self._seen:
            return False
        self._seen.add(key)
        self.reports.append(race)
        return True

    def trip(self, category: RaceCategory, kind: RaceKind, space: MemSpace,
             entry: int, addr: int, owner_tid: int, access_tid: int,
             owner_block: int = -1, access_block: int = -1, pc: int = 0,
             cycle: int = 0, stale_l1: bool = False) -> bool:
        """Record a race trip from its fields; hot-path variant of
        :meth:`report`.

        A detector tripping the same dedup group thousands of times (every
        loop iteration, every lane of a warp) pays for a full
        :class:`RaceReport` construction per trip under :meth:`report`;
        here the report object is only built when the trip is a *new*
        distinct race. Trip counts and thread-pair keys are maintained
        identically.
        """
        key = (space, entry, kind, category)
        counts = self.trip_counts
        counts[key] = counts.get(key, 0) + 1
        self._pair_keys.add((space, entry, kind, category,
                             owner_tid, access_tid))
        if key in self._seen:
            return False
        self._seen.add(key)
        self.reports.append(RaceReport(
            category=category, kind=kind, space=space, entry=entry,
            addr=addr, owner_tid=owner_tid, access_tid=access_tid,
            owner_block=owner_block, access_block=access_block,
            pc=pc, cycle=cycle, stale_l1=stale_l1,
        ))
        return True

    def trip_group(self, category: RaceCategory, kind: RaceKind,
                   space: MemSpace, entry: int, addr: int,
                   owner_tid: int, access_tid: int, trips: int = 1,
                   owner_block: int = -1, access_block: int = -1,
                   pc: int = 0) -> bool:
        """Record ``trips`` trips of one dedup group in a single call.

        Batched detectors classify a whole warp at once and know the trip
        multiplicity per shadow entry up front; this folds the repeated
        :meth:`trip` calls into one count update. The pair key covers only
        the (owner, access) pair given here — additional pairs from the
        same group go through :meth:`note_pairs`.
        """
        key = (space, entry, kind, category)
        counts = self.trip_counts
        counts[key] = counts.get(key, 0) + trips
        self._pair_keys.add((space, entry, kind, category,
                             owner_tid, access_tid))
        if key in self._seen:
            return False
        self._seen.add(key)
        self.reports.append(RaceReport(
            category=category, kind=kind, space=space, entry=entry,
            addr=addr, owner_tid=owner_tid, access_tid=access_tid,
            owner_block=owner_block, access_block=access_block, pc=pc,
        ))
        return True

    def trip_batch(self, category: RaceCategory, space: MemSpace,
                   rows: Iterable[Tuple[int, RaceKind, int, int, int, int]],
                   owner_block: int = -1, access_block: int = -1,
                   pc: int = 0) -> int:
        """Record many dedup groups in one call; returns new distinct races.

        ``rows`` holds ``(entry, kind, addr, owner_tid, access_tid, trips)``
        tuples in report order. Equivalent to calling :meth:`trip_group`
        per row, minus the per-row call overhead — the batched warp check
        produces a whole conflict set at once.
        """
        counts = self.trip_counts
        seen = self._seen
        pairs = self._pair_keys
        new = 0
        for entry, kind, addr, owner, acc, trips in rows:
            key = (space, entry, kind, category)
            counts[key] = counts.get(key, 0) + trips
            pairs.add((space, entry, kind, category, owner, acc))
            if key not in seen:
                seen.add(key)
                self.reports.append(RaceReport(
                    category=category, kind=kind, space=space, entry=entry,
                    addr=addr, owner_tid=owner, access_tid=acc,
                    owner_block=owner_block, access_block=access_block,
                    pc=pc))
                new += 1
        return new

    def note_pairs(self, category: RaceCategory, kind: RaceKind,
                   space: MemSpace,
                   pairs: "Iterable[Tuple[int, int, int]]") -> None:
        """Register extra ``(entry, owner_tid, access_tid)`` pair keys
        for trips already counted via :meth:`trip_group`."""
        self._pair_keys.update(
            (space, e, kind, category, o, a) for e, o, a in pairs)

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return len(self.reports)

    def count(self, category: Optional[RaceCategory] = None,
              kind: Optional[RaceKind] = None,
              space: Optional[MemSpace] = None) -> int:
        """Distinct races matching the given filters."""
        n = 0
        for r in self.reports:
            if category is not None and r.category != category:
                continue
            if kind is not None and r.kind != kind:
                continue
            if space is not None and r.space != space:
                continue
            n += 1
        return n

    def by_category(self) -> Dict[RaceCategory, int]:
        out: Dict[RaceCategory, int] = {}
        for r in self.reports:
            out[r.category] = out.get(r.category, 0) + 1
        return out

    def by_kind(self) -> Dict[RaceKind, int]:
        out: Dict[RaceKind, int] = {}
        for r in self.reports:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out

    def distinct_pairs(self, space: Optional[MemSpace] = None) -> int:
        """Distinct (location, kind, thread-pair) races.

        The Table III false-positive metric: at coarser tracking
        granularities, one shadow entry aggregates more threads, so the
        number of falsely conflicting thread pairs grows even as the
        number of distinct entries shrinks.
        """
        if space is None:
            return len(self._pair_keys)
        return sum(1 for k in self._pair_keys if k[0] == space)

    def total_trips(self) -> int:
        return sum(self.trip_counts.values())

    def __eq__(self, other: object) -> bool:
        """Exact-state equality (reports, trip counts, and pair keys).

        Campaign parity tests rely on this: a cache-served log must be
        indistinguishable from the live detector's log.
        """
        if not isinstance(other, RaceLog):
            return NotImplemented
        return (self.reports == other.reports
                and self.trip_counts == other.trip_counts
                and self._pair_keys == other._pair_keys)

    def clear(self) -> None:
        self.reports.clear()
        self.trip_counts.clear()
        self._seen.clear()
        self._pair_keys.clear()

