"""Immutable measurement records.

Two record kinds drive every figure in the paper:

* :class:`SessionRecord` — one transfer session between a provider and a
  requester (Figs. 5, 7, 8: class fractions, per-session volume CDF,
  waiting-time CDF).
* :class:`DownloadRecord` — one completed object download from original
  request to completion (Figs. 4, 6, 9, 11, 12: mean download times).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class TrafficClass(enum.Enum):
    """Session classification used throughout the paper's figures."""

    NON_EXCHANGE = "non-exchange"
    PAIRWISE = "pairwise"
    THREE_WAY = "3-way"
    FOUR_WAY = "4-way"
    FIVE_WAY = "5-way"
    HIGHER_WAY = "n-way(>5)"

    @classmethod
    def for_ring_size(cls, ring_size: int) -> "TrafficClass":
        """Map a ring size to its class; 0/1 means non-exchange."""
        if ring_size <= 1:
            return cls.NON_EXCHANGE
        if ring_size == 2:
            return cls.PAIRWISE
        if ring_size == 3:
            return cls.THREE_WAY
        if ring_size == 4:
            return cls.FOUR_WAY
        if ring_size == 5:
            return cls.FIVE_WAY
        return cls.HIGHER_WAY

    @property
    def is_exchange(self) -> bool:
        """Whether sessions of this class ran at exchange priority."""
        return self is not TrafficClass.NON_EXCHANGE


class TerminationReason(enum.Enum):
    """Why a transfer session ended."""

    COMPLETED = "completed"  # requester finished the object
    EXHAUSTED = "exhausted"  # no unassigned blocks left for this source
    PREEMPTED = "preempted"  # non-exchange slot reclaimed for an exchange
    REPLACED_BY_EXCHANGE = "replaced-by-exchange"  # same edge upgraded into a ring
    RING_BROKEN = "ring-broken"  # another ring member terminated first
    SOURCE_DELETED = "source-deleted"  # provider evicted the object
    REQUESTER_CANCELLED = "requester-cancelled"  # requester no longer wants it
    PEER_OFFLINE = "peer-offline"  # churn extension
    STOPPED_SHARING = "stopped-sharing"  # provider turned free-rider (strategy layer)
    SIM_END = "sim-end"  # censored at end of run
    CHEAT_DETECTED = "cheat-detected"  # security extension


@dataclass(frozen=True)
class SessionRecord:
    """One provider→requester transfer session."""

    provider_id: int
    requester_id: int
    object_id: int
    traffic_class: TrafficClass
    ring_size: int  # 0 for non-exchange sessions
    ring_id: Optional[int]  # None for non-exchange sessions
    request_time: float  # original object request (for waiting time)
    start_time: float
    end_time: float
    kbit_transferred: float
    reason: TerminationReason
    requester_is_sharer: bool
    #: Population-class label of the requester ("" for hand-built
    #: records; real runs always carry the class name).
    requester_class: str = ""
    #: Scenario-phase label active when the session *ended* ("" outside
    #: any named phase; stamped by the collector, not by call sites).
    phase: str = ""

    @property
    def duration(self) -> float:
        """Session length in seconds (start to termination)."""
        return self.end_time - self.start_time

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise ValueError(
                f"session ends before it starts: [{self.start_time}, {self.end_time}]"
            )
        if self.kbit_transferred < 0:
            raise ValueError(f"negative session volume {self.kbit_transferred}")


@dataclass(frozen=True)
class DownloadRecord:
    """One completed object download (request to full receipt)."""

    peer_id: int
    object_id: int
    request_time: float
    complete_time: float
    size_kbit: float
    peer_is_sharer: bool
    #: Population-class label of the downloading peer ("" for hand-built
    #: records; real runs always carry the class name).
    class_name: str = ""
    #: Scenario-phase label active at completion ("" outside any named
    #: phase; stamped by the collector, not by call sites).
    phase: str = ""

    @property
    def download_time(self) -> float:
        """Seconds from original request to full receipt."""
        return self.complete_time - self.request_time

    def __post_init__(self) -> None:
        if self.complete_time < self.request_time:
            raise ValueError(
                "download completes before request: "
                f"[{self.request_time}, {self.complete_time}]"
            )


@dataclass(frozen=True)
class StrategyEpochRecord:
    """One strategy-revision epoch (see :mod:`repro.strategy`).

    Recorded by the :class:`~repro.strategy.StrategyDirector` after each
    revision pass; the series of these records is the sharing-fraction
    trajectory the ``evolution`` figure plots.
    """

    #: Simulated time of the revision epoch.
    time: float
    #: 1-based epoch index.
    epoch: int
    #: Alive strategy-enrolled peers at the epoch.
    enrolled: int
    #: How many of them currently share.
    sharing: int
    #: How many peers drew a revision opportunity this epoch.
    revised: int
    #: Switches applied this epoch, by direction.
    switched_to_sharing: int
    switched_to_freeloading: int
    #: Mean realized payoff of the sharing / free-riding sides (None
    #: when no peer on that side had window data).
    mean_payoff_sharing: Optional[float]
    mean_payoff_freeloading: Optional[float]
    #: Scenario-phase label active at the epoch ("" outside any named
    #: phase; stamped by the collector, not by call sites).
    phase: str = ""

    @property
    def sharing_fraction(self) -> float:
        """Fraction of alive enrolled peers currently sharing."""
        if self.enrolled <= 0:
            return 0.0
        return self.sharing / self.enrolled

    def __post_init__(self) -> None:
        if not 0 <= self.sharing <= self.enrolled:
            raise ValueError(
                f"sharing count {self.sharing} outside [0, {self.enrolled}]"
            )
