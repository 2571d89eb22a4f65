"""Shared-page placement: one device-memory pool, per-device translations.

A multi-GPU system here has a *single* :class:`~repro.gpu.device.DeviceMemory`
pool — the bump allocator hands out globally unique byte addresses, so a
peer-mapped array is genuinely the same storage no matter which device
touches it. What differs per device is *translation*: every device owns a
:class:`~repro.vm.PageTable` plus a :class:`~repro.vm.TaggedTLB`, and the
:class:`SharedPagePool` decides which tables an allocation lands in:

- ``shared=True`` (peer-mapped / unified): mapped into **every** device's
  page table and registered page-by-page in the home-node
  :class:`~repro.gpu.interconnect.PageDirectory` under its ``home`` device.
- ``shared=False`` (device-local): mapped into the home device's table
  only; a remote access page-faults, exactly like touching an unmapped
  peer allocation on real hardware.

The pool never looks at access streams itself — the
:class:`~repro.multigpu.system.MultiGPUSimulator` walks the canonical
merged record stream after each run and consults the pool for homes,
sharing, and TLB pricing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.gpu.device import DeviceArray, DeviceMemory, device_alloc
from repro.gpu.interconnect import PageDirectory
from repro.vm import PageTable, TaggedTLB


#: default page size of every device's page table, in bytes
PAGE_SIZE = 4096


class SharedPagePool:
    """Placement + translation state for an N-device system."""

    def __init__(self, num_devices: int, mem: DeviceMemory,
                 page_size: int = PAGE_SIZE, tlb_entries: int = 16) -> None:
        if num_devices < 1:
            raise ConfigError("a multi-GPU system needs >= 1 device")
        self.num_devices = num_devices
        self.mem = mem
        self.page_size = page_size
        self._shift = page_size.bit_length() - 1
        self.page_tables: List[PageTable] = [
            PageTable(page_size) for _ in range(num_devices)
        ]
        self.tlbs: List[TaggedTLB] = [
            TaggedTLB(tlb_entries, self.page_tables[d])
            for d in range(num_devices)
        ]
        self.directory = PageDirectory(page_size)
        #: vpn -> home device, for every page the pool allocated
        self._home: Dict[int, int] = {}
        #: vpn -> True when the page is peer-visible (in every table)
        self._shared: Dict[int, bool] = {}
        self.arrays: List[DeviceArray] = []

    # ------------------------------------------------------------------
    # allocation

    def alloc(self, name: str, length: int, itemsize: int = 4,
              home: int = 0, shared: bool = False) -> DeviceArray:
        """Allocate an array on ``home``; map it per the sharing mode."""
        if not 0 <= home < self.num_devices:
            raise ConfigError(f"home device {home} out of range")
        arr = device_alloc(self.mem, name, length, itemsize)
        self.register(arr, home=home, shared=shared)
        return arr

    def register(self, arr: DeviceArray, home: int, shared: bool) -> None:
        """Record placement for an already-allocated array."""
        nbytes = arr.length * arr.itemsize
        targets = range(self.num_devices) if shared else (home,)
        for d in targets:
            self.page_tables[d].map_range(arr.base, nbytes, is_global=True)
        first = self.vpn_of(arr.base)
        last = self.vpn_of(arr.base + max(1, nbytes) - 1)
        for vpn in range(first, last + 1):
            self._home.setdefault(vpn, home)
            if shared:
                self._shared[vpn] = True
                self.directory.register_page(vpn, home)
        self.arrays.append(arr)

    # ------------------------------------------------------------------
    # placement queries

    def vpn_of(self, addr: int) -> int:
        return addr >> self._shift

    def home_of_addr(self, addr: int) -> Optional[int]:
        """Home device of the page containing ``addr`` (None: untracked)."""
        return self._home.get(self.vpn_of(addr))

    def is_shared_addr(self, addr: int) -> bool:
        """Whether ``addr`` lies on a peer-visible (shared) page."""
        return self._shared.get(self.vpn_of(addr), False)

    def tlb_record(self) -> List[Dict[str, object]]:
        """Per-device TLB statistics records (JSON-safe)."""
        return [tlb.stats.record() for tlb in self.tlbs]
