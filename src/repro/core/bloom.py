"""Atomic-ID Bloom-filter signatures for held-lock sets (paper §III-B).

Each thread carries a small Bloom-filter signature — the *atomic ID* — of
the lock variables it currently holds. A signature is a bit vector divided
into ``bins``; adding a lock address sets one bit per bin, selected by
*direct indexing with the low-order bits of the address* (§VI-A2, following
the SigRace-style scheme the paper cites). Removal is clear-on-empty: when
a thread releases all its locks, the signature is cleared — nested locking
is rare and shallow in GPU kernels, so precise deletion is unnecessary.

Lockset intersection is a bitwise AND of signatures; a zero intersection
between two protected accesses means no common lock.

Accuracy behaviour reproduced from the paper: with direct low-order-bit
indexing every bin of a B-bin, S-bit signature uses the *same* low-order
address bits modulo the bin width S/B, so two distinct lock addresses
collide with probability 1/(S/B) on a dense address sweep. For 2 bins this
gives miss rates of 25 % / 12.5 % / 6.25 % at 8/16/32 bits, and 4 bins are
*worse* than 2 at equal size — both observations from §VI-A2.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.common.bitops import is_power_of_two, log2_exact
from repro.common.errors import ConfigError


class BloomSignature:
    """Encoder for atomic-ID signatures of a fixed size/bin geometry."""

    def __init__(self, sig_bits: int = 16, bins: int = 2,
                 addr_granularity: int = 4) -> None:
        if bins < 1:
            raise ConfigError("bins must be >= 1")
        if sig_bits % bins:
            raise ConfigError("sig_bits must divide evenly into bins")
        bin_bits = sig_bits // bins
        if not is_power_of_two(bin_bits):
            raise ConfigError("bits per bin must be a power of two")
        self.sig_bits = sig_bits
        self.bins = bins
        self.bin_bits = bin_bits
        self._index_bits = log2_exact(bin_bits)
        #: lock addresses are word-aligned; drop the alignment bits first
        self._addr_shift = log2_exact(addr_granularity) if addr_granularity > 1 else 0

    # ------------------------------------------------------------------

    def encode(self, addr: int) -> int:
        """Signature with exactly one lock address inserted."""
        word = addr >> self._addr_shift
        sig = 0
        for b in range(self.bins):
            bit = word & (self.bin_bits - 1)
            sig |= 1 << (b * self.bin_bits + bit)
        return sig

    def insert(self, sig: int, addr: int) -> int:
        """Insert ``addr`` into an existing signature."""
        return sig | self.encode(addr)

    def encode_set(self, addrs: Iterable[int]) -> int:
        sig = 0
        for a in addrs:
            sig = self.insert(sig, a)
        return sig

    @staticmethod
    def intersect(sig_a: int, sig_b: int) -> int:
        """Lockset intersection: bitwise AND (paper §III-B)."""
        return sig_a & sig_b

    def may_share_lock(self, sig_a: int, sig_b: int) -> bool:
        """True when the signatures *may* contain a common lock.

        Because every bin must intersect for a shared element to be
        possible, the test requires a set bit in the AND within each bin.
        """
        inter = sig_a & sig_b
        mask = (1 << self.bin_bits) - 1
        for b in range(self.bins):
            if not (inter >> (b * self.bin_bits)) & mask:
                return False
        return True

    def collides(self, addr_a: int, addr_b: int) -> bool:
        """Whether two distinct lock addresses alias to the same signature."""
        return self.encode(addr_a) == self.encode(addr_b)

    # ------------------------------------------------------------------
    # vectorized accuracy study support (§VI-A2 stress test)

    def encode_many(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`encode` over an int64 address array."""
        words = addrs.astype(np.int64) >> self._addr_shift
        sig = np.zeros(len(words), dtype=np.int64)
        for b in range(self.bins):
            bit = words & (self.bin_bits - 1)
            sig |= np.int64(1) << (b * self.bin_bits + bit).astype(np.int64)
        return sig

    def miss_rate(self, addrs: np.ndarray) -> float:
        """Fraction of distinct address pairs indistinguishable by signature.

        Measured the way the paper's stress test does: inject conflicting
        critical sections over a dense sweep of lock addresses and count
        the races missed because the two different locks formed identical
        signatures. For a dense sweep this equals the probability that a
        uniformly random second address collides with the first.
        """
        sigs = self.encode_many(np.asarray(addrs))
        n = len(sigs)
        if n < 2:
            return 0.0
        # collision probability estimated from the signature histogram:
        # P(two random addrs collide) = sum_c (c/n)^2 over signature counts
        _, counts = np.unique(sigs, return_counts=True)
        p_same = float(np.sum((counts / n) ** 2))
        # subtract the diagonal (an address trivially matches itself)
        return max(0.0, (p_same * n - 1.0) / (n - 1.0))
