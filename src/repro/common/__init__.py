"""Common infrastructure shared by every subsystem of the HAccRG reproduction.

This package holds the typed vocabulary of the simulator (memory spaces,
access kinds, race classifications), the hardware configuration dataclasses
encoding the paper's Table I, and small bit/math utilities used throughout.
"""

from repro.common.types import (
    AccessKind,
    MemSpace,
    RaceKind,
    RaceCategory,
    LaneAccess,
    WarpAccess,
    Dim3,
)
from repro.common.config import GPUConfig, HAccRGConfig, DetectionMode, DetectorBackend
from repro.common.errors import ReproError, ConfigError, KernelError, SimulationError
from repro.common.fsutil import atomic_write
from repro.common.bitops import (
    is_power_of_two,
    ceil_div,
    log2_exact,
    align_down,
    align_up,
    mask_bits,
)

__all__ = [
    "AccessKind",
    "MemSpace",
    "RaceKind",
    "RaceCategory",
    "LaneAccess",
    "WarpAccess",
    "Dim3",
    "GPUConfig",
    "HAccRGConfig",
    "DetectionMode",
    "DetectorBackend",
    "ReproError",
    "ConfigError",
    "KernelError",
    "SimulationError",
    "is_power_of_two",
    "ceil_div",
    "log2_exact",
    "align_down",
    "align_up",
    "mask_bits",
    "atomic_write",
]
