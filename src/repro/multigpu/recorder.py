"""Remote-traffic recorder: the per-device tap feeding the merge barrier.

Each device simulator carries one :class:`RemoteTrafficRecorder` as a bus
observer. It captures every *global-space* warp access and every fence as
plain tuples stamped ``(cycle, sm_id, seq)`` — ``seq`` is a per-SM record
counter, so the stamp is unique and the system-level canonical sort
``(phase, cycle, device, sm_id, seq)`` is a total order that does not
depend on Python's tuple-payload comparison.

The recorder reads only plain event fields (never live warp/block
objects), so its records are a pure function of the event stream.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.common.types import MemSpace
from repro.events.bus import Subscriber
from repro.events.effects import TimingEffect
from repro.events.records import AccessIssued, FenceIssued

#: one captured record: (cycle, sm_id, seq, payload)
TrafficRecord = Tuple[int, int, int, Tuple[Any, ...]]


class RemoteTrafficRecorder(Subscriber):
    """Capture global accesses + fences as plain, mergeable tuples."""

    def __init__(self) -> None:
        self._records: List[TrafficRecord] = []
        self._seq: Dict[int, int] = {}

    def _next_seq(self, sm_id: int) -> int:
        seq = self._seq.get(sm_id, 0)
        self._seq[sm_id] = seq + 1
        return seq

    # ------------------------------------------------------------------
    # event handlers

    def on_access(self, ev: AccessIssued) -> Optional[TimingEffect]:
        acc = ev.access
        if acc.space != MemSpace.GLOBAL:
            return None
        rows = tuple(
            (int(lane.lane), int(lane.addr), int(lane.size))
            for lane in acc.lanes
        )
        payload = ("A", int(acc.warp_id), int(acc.block_id),
                   int(acc.kind), int(acc.base_tid), rows)
        self._records.append(
            (int(ev.cycle), int(ev.sm_id), self._next_seq(ev.sm_id), payload)
        )
        return None

    def on_fence(self, ev: FenceIssued) -> Optional[TimingEffect]:
        payload = ("F", int(ev.warp_id), int(ev.scope))
        self._records.append(
            (int(ev.cycle), int(ev.sm_id), self._next_seq(ev.sm_id), payload)
        )
        return None

    # ------------------------------------------------------------------

    def drain(self) -> List[TrafficRecord]:
        """Hand over (and clear) everything captured since the last drain.

        Per-SM ``seq`` counters are *not* reset: ``(sm_id, seq)`` stays
        unique across a device's whole lifetime, which keeps the
        system-level sort key collision-free across phases.
        """
        records = self._records
        self._records = []
        return records
