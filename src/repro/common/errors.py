"""Exception hierarchy for the HAccRG reproduction."""


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ReproError):
    """An invalid hardware or detector configuration was supplied."""


class KernelError(ReproError):
    """A kernel misused the device API (bad address, bad barrier, ...)."""


class SimulationError(ReproError):
    """The simulator reached an internally inconsistent state."""


class TraceFormatError(ReproError, ValueError):
    """A HART trace file is truncated, corrupt, or of an unknown version.

    Everything that parses traces raises this (never bare ``struct.error``
    or ``EOFError``), so callers — the replay CLI, the detection service —
    can turn malformed uploads into structured errors instead of crashes.
    Also a ``ValueError``: parsing historically raised that, and callers
    may still catch it.
    """


class DeadlockError(SimulationError):
    """No warp can make progress (e.g. divergent barrier within a block)."""

