"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so callers can catch a single base class.  Each
subsystem raises the most specific subclass that applies; error messages
always name the offending entity (peer, object, parameter) to make
simulation failures debuggable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A :class:`~repro.config.SimulationConfig` value is invalid.

    Raised eagerly at configuration-validation time, never in the middle
    of a run, so that a bad sweep fails before burning simulation time.
    """


class SimulationError(ReproError):
    """The simulation engine was used incorrectly.

    Examples: scheduling an event in the past, stepping a finished
    engine, or re-running a simulation object that already ran.
    """


class SchedulingError(SimulationError):
    """An event was scheduled at a time earlier than the current clock."""


class CapacityError(ReproError):
    """A slot pool was asked to exceed its configured capacity."""


class StorageError(ReproError):
    """Invalid operation on a peer's object store.

    Examples: storing a duplicate object, evicting a pinned object, or
    unpinning an object that was never pinned.
    """


class LookupError_(ReproError):
    """Object lookup failed in a way that indicates a programming error.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`LookupError`.
    """


class ProtocolError(ReproError):
    """A protocol invariant was violated (requests, rings)."""


class RingError(ProtocolError):
    """An exchange ring is malformed or was manipulated illegally."""


class MetricsError(ReproError):
    """Metrics were queried in an inconsistent way (e.g. empty CDF)."""
