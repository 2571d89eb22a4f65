"""SM <-> memory-slice interconnect cost model (paper §V).

The network carries memory request/response packets between SM clusters and
the memory partitions. Packets are serialized into flits; HAccRG attaches
sync, fence, and atomic IDs to request headers (§V: "network packets carry
sync IDs, fence IDs, and atomic IDs along with the other control
information"), which lengthens request packets slightly when detection is
enabled.

The inter-GPU extension (``repro.multigpu``, docs/MULTIGPU.md) reuses the
same flit model for the peer fabric: :class:`PeerLink` prices one
directional device-to-device link (higher hop latency, link occupancy),
and :class:`PageDirectory` is the home-node directory that tracks, per
shared page, which devices have touched it — the structure the
directory-level cross-GPU detector walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from repro.common.bitops import ceil_div


@dataclass
class InterconnectModel:
    """Latency/serialization model for one request/response round trip."""

    flit_size: int = 32
    hop_latency: int = 12
    header_bytes: int = 8

    def request_flits(self, payload_bytes: int, id_bits: int = 0) -> int:
        """Flits for a request carrying ``payload_bytes`` of data.

        Read requests carry no payload (header only); write requests carry
        the store data. ``id_bits`` is the HAccRG identifier overhead.
        """
        total = self.header_bytes + payload_bytes + ceil_div(id_bits, 8)
        return max(1, ceil_div(total, self.flit_size))

    def response_flits(self, payload_bytes: int) -> int:
        total = self.header_bytes + payload_bytes
        return max(1, ceil_div(total, self.flit_size))

    def round_trip_cycles(self, request_payload: int, response_payload: int,
                          id_bits: int = 0) -> int:
        """Cycles for request + response traversal including serialization."""
        flits = (self.request_flits(request_payload, id_bits)
                 + self.response_flits(response_payload))
        return 2 * self.hop_latency + flits


# ---------------------------------------------------------------------------
# inter-GPU peer fabric
# ---------------------------------------------------------------------------


@dataclass
class PeerLink:
    """One directional inter-GPU link (NVLink-style), flit-serialized.

    Much higher hop latency than the on-chip network and explicitly
    occupancy-tracked: transfers serialize on the link, so a burst of
    remote accesses queues. ``transfer`` is called in the deterministic
    merged-record order (docs/MULTIGPU.md), which makes the queueing —
    and therefore every derived statistic — bit-identical across
    execution modes.
    """

    src: int
    dst: int
    flit_size: int = 32
    hop_latency: int = 60
    header_bytes: int = 16
    #: cycles the link is busy serializing one flit
    flit_cycles: int = 1
    busy_until: int = 0
    transfers: int = 0
    bytes_moved: int = 0
    busy_cycles: int = 0

    def transfer_flits(self, payload_bytes: int) -> int:
        total = self.header_bytes + payload_bytes
        return max(1, ceil_div(total, self.flit_size))

    def transfer(self, payload_bytes: int, cycle: int) -> int:
        """Push one packet at ``cycle``; returns its arrival cycle."""
        serialize = self.transfer_flits(payload_bytes) * self.flit_cycles
        start = max(cycle, self.busy_until)
        self.busy_until = start + serialize
        arrival = start + serialize + self.hop_latency
        self.transfers += 1
        self.bytes_moved += payload_bytes
        self.busy_cycles += serialize
        return arrival

    def round_trip(self, request_bytes: int, response_bytes: int,
                   cycle: int) -> int:
        """Request out + response back; returns total cycles spent."""
        arrival = self.transfer(request_bytes, cycle)
        # the response is priced on the same (bidirectional) link model
        back = self.transfer_flits(response_bytes) * self.flit_cycles
        self.transfers += 1
        self.bytes_moved += response_bytes
        self.busy_cycles += back
        return (arrival - cycle) + back + self.hop_latency

    def record(self) -> Dict[str, int]:
        return {
            "src": self.src,
            "dst": self.dst,
            "transfers": int(self.transfers),
            "bytes_moved": int(self.bytes_moved),
            "busy_cycles": int(self.busy_cycles),
        }


class PeerFabric:
    """All-to-all peer links between ``num_devices`` GPUs."""

    def __init__(self, num_devices: int, flit_size: int = 32,
                 hop_latency: int = 60, header_bytes: int = 16) -> None:
        self.num_devices = num_devices
        self._links: Dict[Tuple[int, int], PeerLink] = {}
        for src in range(num_devices):
            for dst in range(num_devices):
                if src != dst:
                    self._links[(src, dst)] = PeerLink(
                        src=src, dst=dst, flit_size=flit_size,
                        hop_latency=hop_latency, header_bytes=header_bytes,
                    )

    def link(self, src: int, dst: int) -> PeerLink:
        return self._links[(src, dst)]

    def remote_access_cycles(self, src: int, home: int, payload_bytes: int,
                             is_write: bool, cycle: int) -> int:
        """Price one remote access: request to home + response back."""
        link = self._links[(src, home)]
        if is_write:
            return link.round_trip(payload_bytes, 0, cycle)
        return link.round_trip(0, payload_bytes, cycle)

    def records(self) -> List[Dict[str, int]]:
        return [self._links[key].record() for key in sorted(self._links)]

    def total_bytes(self) -> int:
        return sum(link.bytes_moved for link in self._links.values())

    def total_transfers(self) -> int:
        return sum(link.transfers for link in self._links.values())


@dataclass
class DirectoryEntry:
    """Directory state for one shared page."""

    vpn: int
    home: int
    sharers: Set[int] = field(default_factory=set)
    reads: int = 0
    writes: int = 0
    atomics: int = 0


class PageDirectory:
    """Home-node directory over the shared pages of a multi-GPU system.

    Tracks, per virtual page, the home device and the set of devices that
    have accessed it. The directory is both a coherence-traffic model
    (every remote access notionally consults the home node) and the
    work-list of the cross-GPU detector: only pages with more than one
    sharer — or a remote sharer at all — can carry cross-device races.
    """

    def __init__(self, page_size: int = 4096) -> None:
        self.page_size = page_size
        self._shift = page_size.bit_length() - 1
        self._entries: Dict[int, DirectoryEntry] = {}
        self.lookups = 0

    def register_page(self, vpn: int, home: int) -> None:
        if vpn not in self._entries:
            self._entries[vpn] = DirectoryEntry(vpn=vpn, home=home)

    def home_of(self, vpn: int) -> int:
        return self._entries[vpn].home

    def is_shared_vpn(self, vpn: int) -> bool:
        return vpn in self._entries

    def sharer_count(self, vpn: int) -> int:
        """Devices that have accessed page ``vpn`` (0: not registered)."""
        entry = self._entries.get(vpn)
        return len(entry.sharers) if entry is not None else 0

    def note_access(self, vpn: int, device: int, kind: Any) -> DirectoryEntry:
        """Record one access to a shared page; returns the entry."""
        self.lookups += 1
        entry = self._entries[vpn]
        entry.sharers.add(device)
        # AccessKind: READ=0 / WRITE=1 / ATOMIC=2 (int-valued enum)
        k = int(kind)
        if k == 0:
            entry.reads += 1
        elif k == 1:
            entry.writes += 1
        else:
            entry.atomics += 1
        return entry

    def entries(self) -> List[DirectoryEntry]:
        return [self._entries[vpn] for vpn in sorted(self._entries)]

    def multi_sharer_pages(self) -> List[DirectoryEntry]:
        return [e for e in self.entries() if len(e.sharers) > 1]

    def record(self) -> Dict[str, Any]:
        return {
            "pages": len(self._entries),
            "multi_sharer_pages": len(self.multi_sharer_pages()),
            "lookups": int(self.lookups),
        }
