"""Typed event records emitted by the execution core.

Each record is emitted exactly once, at the point in the decomposed SM
issue path where the corresponding architectural event is committed. The
records reference live simulator objects (warps, blocks, threads) rather
than copies — subscribers observe the run as it happens and must not
mutate what they are handed (detection is passive; only the returned
:class:`~repro.events.effects.TimingEffect` feeds back into timing).

``cycle`` is always the issuing SM's local cycle at emission time and
``sm_id`` the emitting SM, so subscribers never need to reach back into
the simulator to attribute an event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.common.types import WarpAccess


@dataclass(slots=True)
class KernelStarted:
    """A kernel launch is about to execute (allocate shadow state here)."""

    launch: Any
    device_mem: Any


@dataclass(slots=True)
class KernelEnded:
    """The kernel finished (implicit closing barrier)."""


@dataclass(slots=True)
class BlockStarted:
    """A thread block was dispatched onto an SM."""

    block: Any
    sm_id: int


@dataclass(slots=True)
class BlockEnded:
    """A thread block retired from its SM."""

    block: Any
    sm_id: int


@dataclass(slots=True)
class ComputeIssued:
    """A warp compute group executed (``instructions`` dynamic instrs)."""

    warp: Any
    sm_id: int
    cycle: int
    lanes: int
    instructions: int


@dataclass(slots=True)
class AccessIssued:
    """A warp memory instruction executed (shared/global load/store/atomic).

    ``lane_l1_hit`` is only populated for global accesses: per-lane flags
    marking lanes satisfied from the (non-coherent) L1, the input of the
    stale-read coherence check (paper §IV-B).
    """

    access: WarpAccess
    sm_id: int
    cycle: int
    lane_l1_hit: Optional[Sequence[bool]] = None


@dataclass(slots=True)
class BarrierReleased:
    """A block-wide barrier completed (shadow invalidation point)."""

    block: Any
    sm_id: int
    cycle: int
    released_lanes: int


#: fence scopes carried on :class:`FenceIssued` (CUDA ``__threadfence``
#: vs ``__threadfence_system``; device scope is the historical default)
FENCE_SCOPE_DEVICE = 0
FENCE_SCOPE_SYSTEM = 1


@dataclass(slots=True)
class FenceIssued:
    """A warp completed a memory-fence instruction.

    ``scope`` distinguishes device-scope from system-scope fences
    (``FENCE_SCOPE_*``); within one device they behave identically, so
    single-device consumers may ignore it. ``warp_id`` / ``block_id``
    carry the issuer identity as plain ints, so observers (the multi-GPU
    recorder) never read the live warp object; ``-1`` means unknown.
    """

    warp: Any
    sm_id: int
    cycle: int
    lanes: int
    scope: int = FENCE_SCOPE_DEVICE
    warp_id: int = -1
    block_id: int = -1


@dataclass(slots=True)
class LockIssued:
    """A warp lock-acquire group executed (``granted`` of ``attempts``)."""

    warp: Any
    sm_id: int
    cycle: int
    attempts: int
    granted: int


@dataclass(slots=True)
class UnlockIssued:
    """A warp lock-release group executed."""

    warp: Any
    sm_id: int
    cycle: int
    lanes: int


@dataclass(slots=True)
class LockAcquired:
    """One thread acquired the lock at ``addr`` (signature update point)."""

    thread: Any
    addr: int
    sm_id: int
    cycle: int


@dataclass(slots=True)
class LockReleased:
    """One thread released the lock at ``addr`` (signature update point)."""

    thread: Any
    addr: int
    sm_id: int
    cycle: int


@dataclass(slots=True)
class IdleAdvanced:
    """An SM had no ready warp and jumped ``cycles`` to the next wake-up."""

    sm_id: int
    cycles: int
