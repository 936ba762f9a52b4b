"""Discrete-event simulation substrate.

Provides the event engine (:class:`~repro.sim.engine.Engine`),
cancellable events (:class:`~repro.sim.events.Event`, cancelled by
tombstone), periodic processes
(:class:`~repro.sim.processes.PeriodicProcess`) and deterministic
random-stream management (:class:`~repro.sim.rng.RandomSource`).
"""

from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.processes import PeriodicProcess
from repro.sim.rng import RandomSource

__all__ = ["Engine", "Event", "PeriodicProcess", "RandomSource"]
