"""Directory-level cross-GPU race detector.

The per-device HAccRG shadow machinery cannot see conflicts *between*
devices — each device has its own shadow state and sync/fence clocks. The
:class:`DirectoryDetector` models the hardware a home-node directory could
plausibly host: per shadow *granule* (the detector's global granularity,
not per byte), it accumulates the endpoints that touched the granule
during one host phase, and judges them at the phase barrier.

Two deliberate design points:

- **Work-list from the directory.** Only granules on pages with more than
  one sharer in the :class:`~repro.gpu.interconnect.PageDirectory` are
  evaluated — single-sharer pages cannot carry cross-device races, so the
  directory prunes them exactly like the paper's global-space bit prunes
  non-shadowed pages.
- **Phase-deferred judgment.** Whether a write was published system-scope
  is a *phase-final* property of the writing warp (a fence later in the
  same phase still publishes it), and per-device cycle counts are not
  comparable, so judging online at access time would depend on an
  arbitrary interleaving. Both this detector and the exact oracle
  (:class:`repro.core.groundtruth.MultiDeviceOracle`) defer to the phase
  flush and share :func:`repro.core.groundtruth.cross_device_verdict` —
  but they traverse structurally different state (granule endpoint sets
  vs per-lane byte spans), so their agreement in the differential harness
  is a genuine cross-check, not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.common.types import RaceCategory, RaceKind
from repro.core.groundtruth import DeviceEndpoint, cross_device_verdict
from repro.multigpu.memory import SharedPagePool


@dataclass(frozen=True)
class CrossGPURace:
    """One granule-level cross-device race the directory detector found."""

    entry: int            #: shadow granule index (addr // granularity)
    kind: RaceKind
    category: RaceCategory
    phase: int
    first_device: int
    second_device: int
    first_tid: int
    second_tid: int

    def describe(self) -> str:
        return (f"{self.category.name} {self.kind.name} on granule "
                f"{self.entry} (phase {self.phase}): device "
                f"{self.first_device} tid {self.first_tid} vs device "
                f"{self.second_device} tid {self.second_tid}")


#: one granule occupant: (device, wid, tid, bid, kind, fence stamp)
_Occupant = Tuple[int, int, int, int, int, int]


class DirectoryDetector:
    """Granule-granularity cross-GPU detector over the page directory."""

    def __init__(self, pool: SharedPagePool, granularity: int = 4) -> None:
        self.pool = pool
        self.granularity = granularity
        #: (device, wid) -> running system-scope fence epoch (persistent)
        self._epoch: Dict[Tuple[int, int], int] = {}
        #: (device, wid) -> epoch at the warp's last record, current phase
        self._final: Dict[Tuple[int, int], int] = {}
        #: granule entry -> {(device, wid, kind, stamp): occupant row}
        self._granules: Dict[int, Dict[Tuple[int, int, int, int],
                                       _Occupant]] = {}
        self.reports: List[CrossGPURace] = []
        self._seen: Set[Tuple[int, int, RaceKind, RaceCategory]] = set()
        self.granules_evaluated = 0
        self.granules_pruned = 0

    # ------------------------------------------------------------------
    # feed (canonical per-phase order; rows pre-filtered to shared pages)

    def on_access(self, device: int, wid: int, bid: int, kind: int,
                  base_tid: int,
                  rows: Iterable[Tuple[int, int, int]]) -> None:
        """One warp access; ``rows`` yields ``(lane, addr, size)``."""
        stamp = self._epoch.get((device, wid), 0)
        self._final[(device, wid)] = stamp
        g = self.granularity
        key = (device, wid, kind, stamp)
        granules = self._granules
        for lane, addr, size in rows:
            first = addr // g
            last = (addr + max(1, size) - 1) // g
            for entry in range(first, last + 1):
                occupants = granules.get(entry)
                if occupants is None:
                    granules[entry] = occupants = {}
                elif key in occupants:
                    continue
                occupants[key] = (device, wid, base_tid + lane, bid,
                                  kind, stamp)

    def on_fence(self, device: int, wid: int, scope: int) -> None:
        """One fence; only system scope publishes across devices."""
        if scope:
            epoch = self._epoch.get((device, wid), 0) + 1
            self._epoch[(device, wid)] = epoch
            self._final[(device, wid)] = epoch

    # ------------------------------------------------------------------
    # phase barrier

    def flush_phase(self, phase: int) -> None:
        """Judge the phase's granules against the directory work-list.

        Verdicts depend on the occupants' ``(device, wid, kind, stamp)``
        keys and the phase-final fence state, never on thread or block
        ids, so each distinct occupant-key tuple is judged once per
        phase and its verdicts are reused as occupant indices.
        """
        directory = self.pool.directory
        memo: Dict[Tuple[Tuple[int, int, int, int], ...],
                   List[Tuple[RaceKind, RaceCategory, int, int]]] = {}
        vpn = sharers = -1
        for entry in sorted(self._granules):
            page = self.pool.vpn_of(entry * self.granularity)
            if page != vpn:
                vpn = page
                sharers = directory.sharer_count(vpn)
            if sharers < 2:
                self.granules_pruned += 1
                continue
            self.granules_evaluated += 1
            occupants = self._granules[entry]
            if len(occupants) < 2:
                continue
            rows = list(occupants.values())
            sig = tuple(occupants)
            verdicts = memo.get(sig)
            if verdicts is None:
                verdicts = memo[sig] = self._judge(phase, rows)
            for kind, category, i, j in verdicts:
                key = (phase, entry, kind, category)
                if key in self._seen:
                    continue
                self._seen.add(key)
                self.reports.append(CrossGPURace(
                    entry=entry, kind=kind, category=category, phase=phase,
                    first_device=rows[i][0], second_device=rows[j][0],
                    first_tid=rows[i][2], second_tid=rows[j][2]))
        self._granules.clear()
        self._final.clear()

    def _judge(self, phase: int, rows: List[_Occupant]
               ) -> List[Tuple[RaceKind, RaceCategory, int, int]]:
        """The first racing pair per ``(kind, category)`` among one
        granule's occupants, in pair order, as ``(kind, category, lo,
        hi)`` occupant indices (lo: lower device)."""
        endpoints = [self._endpoint(phase, row) for row in rows]
        first: Dict[Tuple[RaceKind, RaceCategory], Tuple[int, int]] = {}
        for i, a in enumerate(endpoints):
            for j in range(i + 1, len(endpoints)):
                b = endpoints[j]
                verdict = cross_device_verdict(a, b)
                if verdict is not None and verdict not in first:
                    first[verdict] = (i, j) if a.device < b.device else (j, i)
        return [(kind, category, i, j)
                for (kind, category), (i, j) in first.items()]

    def _endpoint(self, phase: int, row: _Occupant) -> DeviceEndpoint:
        device, wid, tid, bid, kind, stamp = row
        final = self._final.get((device, wid), stamp)
        return DeviceEndpoint(device=device, phase=phase, wid=wid, tid=tid,
                              bid=bid, kind=kind,
                              sys_fenced_after=final > stamp)

    # ------------------------------------------------------------------
    # diff surface

    def entry_keys(self) -> Set[Tuple[str, int]]:
        """Detector races as ``("XGPU", entry)`` diff keys (oracle-compatible)."""
        return {("XGPU", r.entry) for r in self.reports}

    def record(self) -> Dict[str, object]:
        """JSON-safe summary of the detector's run."""
        return {
            "races": len(self.reports),
            "granules_evaluated": int(self.granules_evaluated),
            "granules_pruned": int(self.granules_pruned),
            "by_category": _count_by(self.reports, "category"),
            "by_kind": _count_by(self.reports, "kind"),
        }


def _count_by(reports: List[CrossGPURace], attr: str) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for r in reports:
        name = getattr(r, attr).name
        counts[name] = counts.get(name, 0) + 1
    return counts
