"""The fence-scope lattice: none < block < device < system.

Synchronization scope is what separates precise race verdicts from
barrier-only false positives (*Towards an Accurate GPU Data Race
Detector*, PAPERS.md): a ``__threadfence_block`` publishes stores to the
issuing block, ``__threadfence`` to the issuing device, and only
``__threadfence_system`` to peer devices over shared or unified pages.
The static analyzer threads this four-point chain through every fence
query instead of treating "fence" as one flavor:

- the single-device classifier (:mod:`repro.analyze.passes`) asks for
  publication at **device** scope — any IR fence qualifies, so
  single-device verdicts are unchanged by scope threading;
- the cross-device classifier (:mod:`repro.analyze.multidevice`) asks
  for **system** scope, the publication
  :func:`repro.core.racerule.cross_device_order` reads: a device-scope
  fence after a write publishes nothing to peers.

Either way the answer is a fact passed to the race rule
(:mod:`repro.core.racerule`), which decides what publication orders.

The chain is a total order, so ``join``/``meet`` are ``max``/``min`` and
*monotonicity* holds by construction: strengthening a fence's scope can
only turn "unpublished" into "published", never the reverse — which is
exactly the property the scope lattice property suite asserts end to
end against the oracle.
"""

from __future__ import annotations

from typing import Optional

#: the four lattice points, bottom to top
SCOPE_NONE = 0    #: no fence at all
SCOPE_BLOCK = 1   #: ``__threadfence_block``
SCOPE_DEVICE = 2  #: ``__threadfence``
SCOPE_SYSTEM = 3  #: ``__threadfence_system``

SCOPE_NAMES = {
    SCOPE_NONE: "none",
    SCOPE_BLOCK: "block",
    SCOPE_DEVICE: "device",
    SCOPE_SYSTEM: "system",
}

_ALL_SCOPES = (SCOPE_NONE, SCOPE_BLOCK, SCOPE_DEVICE, SCOPE_SYSTEM)

#: wire encoding used by the fuzz IRs and the event stream: fence
#: statements carry ``scope`` 0 (device) or 1 (system); absent means
#: device scope (a plain ``__threadfence``)
_WIRE_SCOPES = {0: SCOPE_DEVICE, 1: SCOPE_SYSTEM}


def fence_scope(wire: Optional[int]) -> int:
    """Lattice point of one IR/event fence-scope field.

    The runtime encodes ``__threadfence`` as scope 0 and
    ``__threadfence_system`` as scope 1 (see
    :meth:`repro.core.groundtruth.MultiDeviceOracle.on_fence`); a fence
    statement without a scope field is a plain device fence.
    """
    if wire is None:
        return SCOPE_DEVICE
    try:
        return _WIRE_SCOPES[int(wire)]
    except (KeyError, ValueError):
        raise ValueError(f"unknown fence scope encoding {wire!r}") from None


def scope_name(scope: int) -> str:
    """Human-readable lattice point name (report/witness text)."""
    try:
        return SCOPE_NAMES[scope]
    except KeyError:
        raise ValueError(f"not a lattice point: {scope!r}") from None


def publishes(scope: int, required: int) -> bool:
    """Whether a fence of ``scope`` publishes at ``required`` scope.

    The chain is total, so publication is plain dominance: a system
    fence publishes at every scope, a device fence at device scope and
    below, and so on. This single predicate is every pass's fence query.
    """
    return scope >= required


def scope_join(a: int, b: int) -> int:
    """Least upper bound (the stronger scope)."""
    return max(a, b)


def scope_meet(a: int, b: int) -> int:
    """Greatest lower bound (the weaker scope)."""
    return min(a, b)


def all_scopes() -> tuple:
    """The lattice points bottom-to-top (property-test enumeration)."""
    return _ALL_SCOPES


__all__ = [
    "SCOPE_BLOCK",
    "SCOPE_DEVICE",
    "SCOPE_NAMES",
    "SCOPE_NONE",
    "SCOPE_SYSTEM",
    "all_scopes",
    "fence_scope",
    "publishes",
    "scope_join",
    "scope_meet",
    "scope_name",
]
