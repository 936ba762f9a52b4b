"""Metrics collector: every record is folded into the summary inputs as it lands.

:class:`ColumnarCollector` keeps exactly what
:func:`~repro.metrics.summary.summarize` reads, built record by record:

* each post-warmup session is folded into a running
  :class:`SessionAggregates` (counts, per-class volume and waiting-time
  lists, ``+=`` volume sums);
* each post-warmup download leaves one ``(download_time, sharer, class
  label, phase)`` row;
* strategy epochs are kept as :class:`~repro.metrics.records.StrategyEpochRecord`
  objects, one per revision epoch.

Bit-identity contract: every float of a summary input comes from the
same IEEE operations in the same order as the record-order loop that
specifies it (``Oracle`` in ``tests/test_collector_equivalence.py``):
``kbit / 8.0``, ``(start - request) / 60.0``, ``complete - request``
and ``+=`` left folds, with dict keys in first-occurrence order.  No
builtin ``sum()`` builds them: from CPython 3.12 it compensates float
sums, which is not the left fold (lint rule NUM001).

Two consumers keep more:

* a row reader, the strategy layer's epoch ingestion, calls
  :meth:`ColumnarCollector.follow_rows`; from then on every record also
  lands as a 4-tuple in a plain list, which
  :meth:`~ColumnarCollector.session_rows_since` /
  :meth:`~ColumnarCollector.download_rows_since` hand over and release;
* ``keep_records=True`` keeps the record dataclasses themselves for the
  record views (:attr:`~ColumnarCollector.sessions`,
  :attr:`~ColumnarCollector.downloads`,
  :attr:`~ColumnarCollector.strategy_epochs`).  Nothing else builds them.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import MetricsError
from repro.metrics.records import (
    DownloadRecord,
    SessionRecord,
    StrategyEpochRecord,
    TerminationReason,
    TrafficClass,
)

#: ``(requester_id, request_time, end_time, is_exchange)``: one session
#: in a reader's feed.
SessionRow = Tuple[int, float, float, bool]
#: ``(peer_id, request_time, complete_time, download_time)``: one
#: download in a reader's feed.
DownloadRow = Tuple[int, float, float, float]


@dataclass
class SessionAggregates:
    """Per-class/per-phase reductions over post-warmup sessions.

    Dict key order is observable (summaries serialize to JSON): every
    mapping is keyed in *first-occurrence order* over the post-warmup
    sessions.
    """

    #: Sessions per traffic-class label.
    session_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-session volume (KB) lists per traffic-class label.
    volume_kb_by_class: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-session waiting time (minutes) lists per traffic-class label.
    waiting_min_by_class: Dict[str, List[float]] = field(default_factory=dict)
    #: Sessions whose traffic class is an exchange class.
    exchange_sessions: int = 0
    #: All post-warmup sessions (the fraction's denominator).
    total_sessions: int = 0
    #: Volume (kbit) received by sharer / freeloader requesters.
    sharer_kbit: float = 0.0
    freeloader_kbit: float = 0.0
    #: Volume (kbit) received per population-class label (records
    #: without a label fall back to sharer/freeloader).
    kbit_by_peer_class: Dict[str, float] = field(default_factory=dict)
    #: Sessions per scenario-phase label (unlabeled sessions skipped).
    phase_counts: Dict[str, int] = field(default_factory=dict)
    #: Exchange sessions per scenario-phase label.
    phase_exchange_counts: Dict[str, int] = field(default_factory=dict)


def _grouped(pairs: Iterable[Tuple[str, float]]) -> Dict[str, List[float]]:
    """``{label: times}`` keyed in first-occurrence order ("" skipped)."""
    grouped: Dict[str, List[float]] = {}
    for label, time in pairs:
        if label:
            grouped.setdefault(label, []).append(time)
    return grouped


def _take(feed: Optional[List[Any]], count: int, start: int) -> List[Any]:
    """Rows ``start..`` of a feed whose last row is row ``count - 1``.

    The feed is emptied: a reader reads to the end.
    """
    unread = feed if feed is not None else []
    first = count - len(unread)
    if start < first:
        raise MetricsError(
            f"rows before {first} were not kept for a reader; call "
            "follow_rows() before they land"
        )
    rows = unread[start - first:]
    unread.clear()
    return rows


class ColumnarCollector:
    """The metrics sink: the ``add_*`` API, counters, phase stamping,
    the summary-input queries and the strategy layer's row feeds.

    ``warmup`` is the measurement-window boundary the fold censors at;
    ``keep_records`` keeps every record for the record views.

    The module and class names date from an earlier design that stored
    rows in numpy columns.  They stay because the end-to-end benchmark's
    tracer hooks ``repro.metrics.columnar:ColumnarCollector.add_session``,
    ``add_download``, ``session_rows_since`` and ``download_rows_since``
    by name, and its cell report probes :meth:`storage_nbytes`.
    """

    def __init__(self, warmup: float = 0.0, keep_records: bool = False) -> None:
        self.warmup = warmup
        self.keep_records = keep_records
        self._aggregates = SessionAggregates()
        #: ``(download_time, sharer, class label, phase)`` per
        #: post-warmup download, in record order.
        self._downloads: List[Tuple[float, bool, str, str]] = []
        self._epochs: List[StrategyEpochRecord] = []
        self._session_records: List[SessionRecord] = []
        self._download_records: List[DownloadRecord] = []
        #: Unread rows of the reader's feeds; ``None`` until
        #: :meth:`follow_rows`.
        self._session_feed: Optional[List[SessionRow]] = None
        self._download_feed: Optional[List[DownloadRow]] = None
        #: Session / download records so far (warmup included).
        self.num_sessions = 0
        self.num_downloads = 0
        self.counters: Counter = Counter()
        #: Scenario-phase label stamped onto records as they land; set
        #: by the :class:`~repro.scenario.ScenarioDirector` on phase
        #: markers ("" = no named phase, the closed-system default).
        self.current_phase: str = ""

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add_session(
        self,
        provider_id: int,
        requester_id: int,
        object_id: int,
        traffic_class: TrafficClass,
        ring_size: int,
        ring_id: Optional[int],
        request_time: float,
        start_time: float,
        end_time: float,
        kbit_transferred: float,
        reason: TerminationReason,
        requester_is_sharer: bool,
        requester_class: str = "",
        phase: str = "",
    ) -> None:
        """Record one transfer session; a post-warmup one is folded."""
        if end_time < start_time:
            raise ValueError(
                f"session ends before it starts: [{start_time}, {end_time}]"
            )
        if kbit_transferred < 0:
            raise ValueError(f"negative session volume {kbit_transferred}")
        if self.current_phase and not phase:
            phase = self.current_phase
        self.num_sessions += 1
        self.counters[f"session.{traffic_class.value}"] += 1
        self.counters[f"session.reason.{reason.value}"] += 1
        is_exchange = traffic_class.is_exchange
        if self._session_feed is not None:
            self._session_feed.append((requester_id, request_time, end_time, is_exchange))
        if self.keep_records:
            self._session_records.append(
                SessionRecord(
                    provider_id=provider_id,
                    requester_id=requester_id,
                    object_id=object_id,
                    traffic_class=traffic_class,
                    ring_size=ring_size,
                    ring_id=ring_id,
                    request_time=request_time,
                    start_time=start_time,
                    end_time=end_time,
                    kbit_transferred=kbit_transferred,
                    reason=reason,
                    requester_is_sharer=requester_is_sharer,
                    requester_class=requester_class,
                    phase=phase,
                )
            )
        if end_time >= self.warmup:
            agg = self._aggregates
            label = traffic_class.value
            agg.total_sessions += 1
            agg.session_counts[label] = agg.session_counts.get(label, 0) + 1
            agg.volume_kb_by_class.setdefault(label, []).append(kbit_transferred / 8.0)
            agg.waiting_min_by_class.setdefault(label, []).append(
                (start_time - request_time) / 60.0
            )
            agg.exchange_sessions += is_exchange
            if requester_is_sharer:
                agg.sharer_kbit += kbit_transferred
            else:
                agg.freeloader_kbit += kbit_transferred
            peer_class = requester_class or (
                "sharer" if requester_is_sharer else "freeloader"
            )
            agg.kbit_by_peer_class[peer_class] = (
                agg.kbit_by_peer_class.get(peer_class, 0.0) + kbit_transferred
            )
            if phase:
                agg.phase_counts[phase] = agg.phase_counts.get(phase, 0) + 1
                agg.phase_exchange_counts[phase] = (
                    agg.phase_exchange_counts.get(phase, 0) + is_exchange
                )

    def add_download(
        self,
        peer_id: int,
        object_id: int,
        request_time: float,
        complete_time: float,
        size_kbit: float,
        peer_is_sharer: bool,
        class_name: str = "",
        phase: str = "",
    ) -> None:
        """Record one completed download; a post-warmup one keeps a row."""
        if complete_time < request_time:
            raise ValueError(
                "download completes before request: "
                f"[{request_time}, {complete_time}]"
            )
        if self.current_phase and not phase:
            phase = self.current_phase
        self.num_downloads += 1
        self.counters["download.sharer" if peer_is_sharer else "download.freeloader"] += 1
        download_time = complete_time - request_time
        if self._download_feed is not None:
            self._download_feed.append((peer_id, request_time, complete_time, download_time))
        if self.keep_records:
            self._download_records.append(
                DownloadRecord(
                    peer_id=peer_id,
                    object_id=object_id,
                    request_time=request_time,
                    complete_time=complete_time,
                    size_kbit=size_kbit,
                    peer_is_sharer=peer_is_sharer,
                    class_name=class_name,
                    phase=phase,
                )
            )
        if complete_time >= self.warmup:
            peer_class = class_name or ("sharer" if peer_is_sharer else "freeloader")
            self._downloads.append((download_time, peer_is_sharer, peer_class, phase))

    def add_strategy_epoch(
        self,
        time: float,
        epoch: int,
        enrolled: int,
        sharing: int,
        revised: int,
        switched_to_sharing: int,
        switched_to_freeloading: int,
        mean_payoff_sharing: Optional[float],
        mean_payoff_freeloading: Optional[float],
        phase: str = "",
    ) -> None:
        """Record one strategy-revision epoch (the record rejects a
        sharing count outside ``[0, enrolled]``)."""
        if self.current_phase and not phase:
            phase = self.current_phase
        self._epochs.append(
            StrategyEpochRecord(
                time=time,
                epoch=epoch,
                enrolled=enrolled,
                sharing=sharing,
                revised=revised,
                switched_to_sharing=switched_to_sharing,
                switched_to_freeloading=switched_to_freeloading,
                mean_payoff_sharing=mean_payoff_sharing,
                mean_payoff_freeloading=mean_payoff_freeloading,
                phase=phase,
            )
        )

    def count(self, name: str, delta: int = 1) -> None:
        """Bump a free-form counter (ring attempts, token failures, ...)."""
        self.counters[name] += delta

    # ------------------------------------------------------------------
    # record views (keep_records only; tests and tools)
    # ------------------------------------------------------------------
    def _kept(self, records: List[Any], view: str) -> List[Any]:
        if not self.keep_records:
            raise MetricsError(
                f"the {view} record view needs a collector built with "
                "keep_records=True"
            )
        return list(records)

    @property
    def sessions(self) -> List[SessionRecord]:
        """Every session record, in record order (fresh list)."""
        return self._kept(self._session_records, "sessions")

    @property
    def downloads(self) -> List[DownloadRecord]:
        """Every download record, in record order (fresh list)."""
        return self._kept(self._download_records, "downloads")

    @property
    def strategy_epochs(self) -> List[StrategyEpochRecord]:
        """Every strategy-epoch record, in record order (fresh list)."""
        return self._kept(self._epochs, "strategy_epochs")

    def reason_counts(self) -> Dict[TerminationReason, int]:
        """Session count per termination reason (zero counts omitted)."""
        counts: Dict[TerminationReason, int] = {}
        for reason in TerminationReason:
            key = f"session.reason.{reason.value}"
            if self.counters[key]:
                counts[reason] = self.counters[key]
        return counts

    # ------------------------------------------------------------------
    # summary inputs (post-warmup)
    # ------------------------------------------------------------------
    def download_times(self, sharer: Optional[bool] = None) -> List[float]:
        """Download times in seconds, optionally filtered by peer class."""
        return [
            time
            for time, is_sharer, _, _ in self._downloads
            if sharer is None or is_sharer == sharer
        ]

    def download_times_by_class(self) -> Dict[str, List[float]]:
        """Download times (seconds) per population-class label.

        Unlabeled records read as sharer/freeloader.  Keys appear in
        first-occurrence order.
        """
        return _grouped((label, time) for time, _, label, _ in self._downloads)

    def download_times_by_phase(self) -> Dict[str, List[float]]:
        """Download times (seconds) per scenario-phase label ("" skipped)."""
        return _grouped((phase, time) for time, _, _, phase in self._downloads)

    def session_aggregates(self) -> SessionAggregates:
        """Per-class/per-phase reductions over post-warmup sessions (a
        fresh, caller-owned copy)."""
        return copy.deepcopy(self._aggregates)

    def sharing_fraction_by_epoch(self) -> List[List[float]]:
        """``[time, sharing_fraction]`` per revision epoch, in
        ``(time, epoch)`` order (warmup included)."""
        return [
            [record.time, record.sharing_fraction]
            for record in sorted(self._epochs, key=lambda r: (r.time, r.epoch))
        ]

    # ------------------------------------------------------------------
    # row feeds (strategy layer)
    # ------------------------------------------------------------------
    def follow_rows(self) -> Tuple[int, int]:
        """Start the row feeds for a ``*_rows_since`` reader.

        Returns its starting ``(session, download)`` cursors: the current
        record counts.  Earlier records are not fed.
        """
        if self._session_feed is None:
            self._session_feed = []
            self._download_feed = []
        return self.num_sessions, self.num_downloads

    def session_rows_since(self, start: int) -> List[SessionRow]:
        """``(requester_id, request_time, end_time, is_exchange)`` rows.

        Returns rows ``start..`` in record order and releases them; the
        strategy layer's epoch ingestion reads these instead of records.
        """
        return _take(self._session_feed, self.num_sessions, start)

    def download_rows_since(self, start: int) -> List[DownloadRow]:
        """``(peer_id, request_time, complete_time, download_time)`` rows
        ``start..``, released once returned."""
        return _take(self._download_feed, self.num_downloads, start)

    # ------------------------------------------------------------------
    def storage_nbytes(self) -> int:
        """Approximate retained footprint: 8 bytes per value held.

        Counts the fold's two values per post-warmup session, four per
        download row and per unread feed row, and one per field of each
        kept record and strategy epoch.
        """
        unread = len(self._session_feed or ()) + len(self._download_feed or ())
        values = (
            2 * self._aggregates.total_sessions
            + 4 * (len(self._downloads) + unread)
            + len(fields(SessionRecord)) * len(self._session_records)
            + len(fields(DownloadRecord)) * len(self._download_records)
            + len(fields(StrategyEpochRecord)) * len(self._epochs)
        )
        return 8 * values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarCollector(sessions={self.num_sessions}, "
            f"downloads={self.num_downloads})"
        )
