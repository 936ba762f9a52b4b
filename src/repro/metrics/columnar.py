"""Columnar metrics collector: numpy struct-of-arrays rows, folded on freeze.

Records land as scalars appended to a staging row list.  Every
``_CHUNK`` rows the staging tail is frozen into one numpy array per
column and handed to the running folds in :mod:`repro.metrics.aggregates`,
which keep exactly what :func:`~repro.metrics.summary.summarize` reads;
the chunk is then released, so metrics memory is flat in run length.
The summary-input queries (:meth:`ColumnarCollector.download_times` and
friends, :meth:`ColumnarCollector.session_aggregates`) freeze the
staging tail and read the folds, censoring at the warmup the collector
was built with.

Two consumers hold frozen chunks longer:

* a row reader — the strategy layer's epoch ingestion through
  :meth:`ColumnarCollector.session_rows_since` /
  :meth:`ColumnarCollector.download_rows_since` — keeps each chunk only
  until its cursor has passed it (:meth:`ColumnarCollector.follow_rows`);
* ``keep_records=True`` keeps every chunk, so the record views
  (:attr:`~ColumnarCollector.sessions`, :attr:`~ColumnarCollector.downloads`,
  :attr:`~ColumnarCollector.strategy_epochs`) can materialize
  dataclasses for tests and tools.  Nothing on the hot path allocates
  them.

Sentinels: ``ring_id=None`` is stored as ``-1`` (real ring ids start at
1), and ``None`` epoch payoffs are stored as NaN; both are restored on
view materialization.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MetricsError
from repro.metrics.aggregates import (
    RunningDownloadTimes,
    RunningSessionAggregates,
    SessionAggregates,
)
from repro.metrics.records import (
    DownloadRecord,
    SessionRecord,
    StrategyEpochRecord,
    TerminationReason,
    TrafficClass,
)
from repro.sim.counters import PerfCounters

#: Rows staged as Python tuples before being frozen into numpy chunks.
_CHUNK = 4096

_TRAFFIC_CLASSES: Tuple[TrafficClass, ...] = tuple(TrafficClass)
_TRAFFIC_CODE: Dict[TrafficClass, int] = {tc: i for i, tc in enumerate(_TRAFFIC_CLASSES)}
_NON_EXCHANGE_CODE = _TRAFFIC_CODE[TrafficClass.NON_EXCHANGE]
_REASONS: Tuple[TerminationReason, ...] = tuple(TerminationReason)
_REASON_CODE: Dict[TerminationReason, int] = {r: i for i, r in enumerate(_REASONS)}

_Schema = Tuple[Tuple[str, type], ...]

_SESSION_SCHEMA: _Schema = (
    ("provider_id", np.int64),
    ("requester_id", np.int64),
    ("object_id", np.int64),
    ("traffic_class", np.int8),
    ("ring_size", np.int32),
    ("ring_id", np.int64),
    ("request_time", np.float64),
    ("start_time", np.float64),
    ("end_time", np.float64),
    ("kbit", np.float64),
    ("reason", np.int8),
    ("sharer", np.bool_),
    ("req_class", np.int32),
    ("phase", np.int32),
    ("eff_class", np.int32),
)

_DOWNLOAD_SCHEMA: _Schema = (
    ("peer_id", np.int64),
    ("object_id", np.int64),
    ("request_time", np.float64),
    ("complete_time", np.float64),
    ("size_kbit", np.float64),
    ("sharer", np.bool_),
    ("class_name", np.int32),
    ("phase", np.int32),
    ("eff_class", np.int32),
)

_EPOCH_SCHEMA: _Schema = (
    ("time", np.float64),
    ("epoch", np.int64),
    ("enrolled", np.int64),
    ("sharing", np.int64),
    ("revised", np.int64),
    ("to_sharing", np.int64),
    ("to_freeloading", np.int64),
    ("payoff_sharing", np.float64),
    ("payoff_freeloading", np.float64),
    ("phase", np.int32),
)


class _ColumnTable:
    """Chunked struct-of-arrays rows with a tuple-per-row staging tail.

    The hot path is :meth:`append`: one list append per record.  Every
    ``_CHUNK`` rows the staging tail is transposed and frozen into one
    numpy array per column, handed to the ``on_freeze`` fold, and
    released — unless ``keep_all`` keeps every chunk, or a row reader
    (:meth:`follow`) has not read past it yet.
    """

    __slots__ = (
        "_schema",
        "_index",
        "_staging",
        "_count",
        "_on_freeze",
        "_keep_all",
        "_following",
        "_kept",
        "_kept_from",
    )

    def __init__(
        self,
        schema: _Schema,
        on_freeze: Optional[Callable[[Dict[str, np.ndarray]], None]] = None,
        keep_all: bool = False,
    ) -> None:
        self._schema = schema
        self._index = {name: i for i, (name, _) in enumerate(schema)}
        self._staging: List[Tuple[object, ...]] = []
        self._count = 0
        self._on_freeze = on_freeze
        self._keep_all = keep_all
        self._following = False
        self._kept: List[Dict[str, np.ndarray]] = []
        #: Row index of the first kept row (of the staging tail when no
        #: chunk is kept).
        self._kept_from = 0

    def __len__(self) -> int:
        return self._count

    def append(self, row: Tuple[object, ...]) -> None:
        """Stage one row (positional, matching the schema order)."""
        staging = self._staging
        staging.append(row)
        self._count += 1
        if len(staging) >= _CHUNK:
            self._flush()

    def _flush(self) -> None:
        columns = zip(*self._staging)
        frozen = {  # simlint: disable=HOT001 -- amortized once per _CHUNK rows
            name: np.asarray(values, dtype=dtype)
            for (name, dtype), values in zip(self._schema, columns)
        }
        if self._on_freeze is not None:
            self._on_freeze(frozen)
        if self._keep_all or self._following:
            self._kept.append(frozen)
        else:
            self._kept_from += len(self._staging)
        self._staging.clear()

    def drain(self) -> None:
        """Freeze the staging tail now (partial chunk; query-time use).

        Chunk boundaries are not observable — every fold is elementwise
        or a carried left-fold — so draining early changes no value.
        """
        if self._staging:
            self._flush()

    def follow(self) -> int:
        """Keep frozen chunks for a row reader from now on.

        Returns the reader's starting cursor, the current row count:
        rows before it may already be released.
        """
        self._following = True
        return self._count

    def rows_since(self, start: int, names: Sequence[str]) -> List[List[object]]:
        """Python-scalar columns of rows ``start..`` in record order.

        Kept chunks are sliced and the staging tail is read in place
        (reading freezes nothing).  A reader reads to the end, so
        afterwards every kept chunk is behind its cursor and is released
        unless ``keep_all`` holds it.
        """
        if start < self._kept_from:
            raise MetricsError(
                f"rows before {self._kept_from} were released; build the "
                "collector with keep_records=True to read them"
            )
        columns: List[List[object]] = []
        for name in names:
            values: List[object] = []
            offset = self._kept_from
            for chunk in self._kept:
                array = chunk[name]
                if offset + len(array) > start:
                    values.extend(array[max(0, start - offset):].tolist())
                offset += len(array)
            index = self._index[name]
            values.extend(row[index] for row in self._staging[max(0, start - offset):])
            columns.append(values)
        if not self._keep_all:
            self._kept_from = self._count - len(self._staging)
            self._kept.clear()
        return columns

    def nbytes(self) -> int:
        """Approximate kept-chunk footprint in bytes (staging excluded)."""
        return sum(  # simlint: disable=NUM001 -- int byte tally, no float rounding
            array.nbytes for chunk in self._kept for array in chunk.values()
        )


def _counted(
    fold: Callable[[Dict[str, np.ndarray]], None], counters: PerfCounters, name: str
) -> Callable[[Dict[str, np.ndarray]], None]:
    """``fold`` plus one ``name`` bump per frozen chunk, the collector's
    unit of amortized work."""

    def on_freeze(frozen: Dict[str, np.ndarray]) -> None:
        fold(frozen)
        counters.bump(name)

    return on_freeze


class ColumnarCollector:
    """Numpy-backed metrics sink: the ``add_*`` scalar rows, counters,
    phase stamping, the summary-input queries and the strategy layer's
    row feeds.

    ``warmup`` is the measurement-window boundary the folds censor at;
    ``perf_counters`` receives the chunk-freeze tallies (a private set
    when omitted); ``keep_records`` keeps every row for the record views.
    """

    def __init__(
        self,
        warmup: float = 0.0,
        perf_counters: Optional[PerfCounters] = None,
        keep_records: bool = False,
    ) -> None:
        #: Shared string-interning table for class and phase labels.
        self._labels: List[str] = [""]
        self._codes: Dict[str, int] = {"": 0}
        self.warmup = warmup
        self.keep_records = keep_records
        traffic_labels = tuple(tc.value for tc in _TRAFFIC_CLASSES)
        self._session_fold = RunningSessionAggregates(
            warmup, traffic_labels, self._labels, _NON_EXCHANGE_CODE
        )
        self._download_fold = RunningDownloadTimes(warmup, self._labels)
        perf = perf_counters if perf_counters is not None else PerfCounters()
        self._sessions = _ColumnTable(
            _SESSION_SCHEMA,
            on_freeze=_counted(self._session_fold.fold, perf, "collector.session_chunks"),
            keep_all=keep_records,
        )
        self._downloads = _ColumnTable(
            _DOWNLOAD_SCHEMA,
            on_freeze=_counted(
                self._download_fold.fold, perf, "collector.download_chunks"
            ),
            keep_all=keep_records,
        )
        # One row per revision epoch, never a memory concern: the
        # summary reads the whole table.
        self._epochs = _ColumnTable(_EPOCH_SCHEMA, keep_all=True)
        self.counters: Counter = Counter()
        #: Scenario-phase label stamped onto records as they land; set
        #: by the :class:`~repro.scenario.ScenarioDirector` on phase
        #: markers ("" = no named phase, the closed-system default).
        self.current_phase: str = ""

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def _intern(self, label: str) -> int:
        code = self._codes.get(label)
        if code is None:
            code = len(self._labels)
            self._labels.append(label)
            self._codes[label] = code
        return code

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
        """Append one transfer-session row without building a record."""
        if end_time < start_time:
            raise ValueError(
                f"session ends before it starts: [{start_time}, {end_time}]"
            )
        if kbit_transferred < 0:
            raise ValueError(f"negative session volume {kbit_transferred}")
        if self.current_phase and not phase:
            phase = self.current_phase
        effective = requester_class or (
            "sharer" if requester_is_sharer else "freeloader"
        )
        self._sessions.append(
            (
                provider_id,
                requester_id,
                object_id,
                _TRAFFIC_CODE[traffic_class],
                ring_size,
                -1 if ring_id is None else ring_id,
                request_time,
                start_time,
                end_time,
                kbit_transferred,
                _REASON_CODE[reason],
                requester_is_sharer,
                self._intern(requester_class),
                self._intern(phase),
                self._intern(effective),
            )
        )
        self.counters[f"session.{traffic_class.value}"] += 1
        self.counters[f"session.reason.{reason.value}"] += 1

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
        """Append one completed-download row without building a record."""
        if complete_time < request_time:
            raise ValueError(
                "download completes before request: "
                f"[{request_time}, {complete_time}]"
            )
        if self.current_phase and not phase:
            phase = self.current_phase
        effective = class_name or ("sharer" if peer_is_sharer else "freeloader")
        self._downloads.append(
            (
                peer_id,
                object_id,
                request_time,
                complete_time,
                size_kbit,
                peer_is_sharer,
                self._intern(class_name),
                self._intern(phase),
                self._intern(effective),
            )
        )
        key = "download.sharer" if peer_is_sharer else "download.freeloader"
        self.counters[key] += 1

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
        """Append one strategy-revision epoch row."""
        if not 0 <= sharing <= enrolled:
            raise ValueError(f"sharing count {sharing} outside [0, {enrolled}]")
        if self.current_phase and not phase:
            phase = self.current_phase
        self._epochs.append(
            (
                time,
                epoch,
                enrolled,
                sharing,
                revised,
                switched_to_sharing,
                switched_to_freeloading,
                np.nan if mean_payoff_sharing is None else mean_payoff_sharing,
                np.nan if mean_payoff_freeloading is None else mean_payoff_freeloading,
                self._intern(phase),
            )
        )

    def count(self, name: str, delta: int = 1) -> None:
        """Bump a free-form counter (ring attempts, token failures, ...)."""
        self.counters[name] += delta

    # ------------------------------------------------------------------
    # record views (keep_records only; tests and tools)
    # ------------------------------------------------------------------
    def _records(self, table: _ColumnTable, schema: _Schema, view: str) -> Iterator[tuple]:
        if not self.keep_records:
            raise MetricsError(
                f"the {view} record view needs a collector built with "
                "keep_records=True"
            )
        return zip(*table.rows_since(0, [name for name, _ in schema]))

    @property
    def sessions(self) -> List[SessionRecord]:
        """All session rows materialized as records (fresh list)."""
        labels = self._labels
        return [
            SessionRecord(
                provider_id=pid,
                requester_id=rid,
                object_id=oid,
                traffic_class=_TRAFFIC_CLASSES[tc],
                ring_size=ring_size,
                ring_id=None if ring_id < 0 else ring_id,
                request_time=request_time,
                start_time=start_time,
                end_time=end_time,
                kbit_transferred=kbit,
                reason=_REASONS[reason],
                requester_is_sharer=sharer,
                requester_class=labels[req_class],
                phase=labels[phase],
            )
            for (
                pid, rid, oid, tc, ring_size, ring_id, request_time,
                start_time, end_time, kbit, reason, sharer, req_class,
                phase, _eff,
            ) in self._records(self._sessions, _SESSION_SCHEMA, "sessions")
        ]

    @property
    def downloads(self) -> List[DownloadRecord]:
        """All download rows materialized as records (fresh list)."""
        labels = self._labels
        return [
            DownloadRecord(
                peer_id=pid,
                object_id=oid,
                request_time=request_time,
                complete_time=complete_time,
                size_kbit=size_kbit,
                peer_is_sharer=sharer,
                class_name=labels[class_name],
                phase=labels[phase],
            )
            for (
                pid, oid, request_time, complete_time, size_kbit, sharer,
                class_name, phase, _eff,
            ) in self._records(self._downloads, _DOWNLOAD_SCHEMA, "downloads")
        ]

    @property
    def strategy_epochs(self) -> List[StrategyEpochRecord]:
        """All strategy-epoch rows materialized as records (fresh list)."""
        labels = self._labels
        return [
            StrategyEpochRecord(
                time=time,
                epoch=epoch,
                enrolled=enrolled,
                sharing=sharing,
                revised=revised,
                switched_to_sharing=to_sharing,
                switched_to_freeloading=to_freeloading,
                mean_payoff_sharing=None if payoff_s != payoff_s else payoff_s,
                mean_payoff_freeloading=None if payoff_f != payoff_f else payoff_f,
                phase=labels[phase],
            )
            for (
                time, epoch, enrolled, sharing, revised, to_sharing,
                to_freeloading, payoff_s, payoff_f, phase,
            ) in self._records(self._epochs, _EPOCH_SCHEMA, "strategy_epochs")
        ]

    def reason_counts(self) -> Dict[TerminationReason, int]:
        """Session count per termination reason (zero counts omitted)."""
        counts: Dict[TerminationReason, int] = {}
        for reason in TerminationReason:
            key = f"session.reason.{reason.value}"
            if self.counters[key]:
                counts[reason] = self.counters[key]
        return counts

    # ------------------------------------------------------------------
    # summary inputs (post-warmup, read from the folds)
    # ------------------------------------------------------------------
    def download_times(self, sharer: Optional[bool] = None) -> List[float]:
        """Download times in seconds, optionally filtered by peer class."""
        self._downloads.drain()
        return self._download_fold.times(sharer)

    def download_times_by_class(self) -> Dict[str, List[float]]:
        """Download times (seconds) per population-class label.

        Unlabeled records read as sharer/freeloader.  Keys appear in
        first-occurrence order.
        """
        self._downloads.drain()
        return self._download_fold.times_by_label("eff_class")

    def download_times_by_phase(self) -> Dict[str, List[float]]:
        """Download times (seconds) per scenario-phase label ("" skipped)."""
        self._downloads.drain()
        return self._download_fold.times_by_label("phase")

    def session_aggregates(self) -> SessionAggregates:
        """Per-class/per-phase reductions over post-warmup sessions."""
        self._sessions.drain()
        return self._session_fold.result()

    def sharing_fraction_by_epoch(self) -> List[List[float]]:
        """``[time, sharing_fraction]`` per revision epoch, in
        ``(time, epoch)`` order (warmup included)."""
        self._epochs.drain()  # read back through the schema dtypes
        rows = sorted(
            zip(*self._epochs.rows_since(0, ("time", "epoch", "enrolled", "sharing"))),
            key=lambda row: (row[0], row[1]),
        )
        return [
            [time, sharing / enrolled if enrolled > 0 else 0.0]
            for time, _epoch, enrolled, sharing in rows
        ]

    # ------------------------------------------------------------------
    # incremental row feeds (strategy layer)
    # ------------------------------------------------------------------
    @property
    def num_sessions(self) -> int:
        """Session rows recorded so far (no materialization)."""
        return len(self._sessions)

    @property
    def num_downloads(self) -> int:
        """Download rows recorded so far (no materialization)."""
        return len(self._downloads)

    def follow_rows(self) -> Tuple[int, int]:
        """Keep rows for a ``*_rows_since`` reader from now on.

        Returns its starting ``(session, download)`` cursors: the current
        row counts.  Earlier rows may already be released.
        """
        return self._sessions.follow(), self._downloads.follow()

    def session_rows_since(
        self, start: int
    ) -> Iterator[Tuple[int, float, float, bool]]:
        """``(requester_id, request_time, end_time, is_exchange)`` rows.

        Yields rows ``start..`` in record order; the strategy layer's
        epoch ingestion reads these instead of materializing records.
        """
        requester, request, end, codes = self._sessions.rows_since(
            start, ("requester_id", "request_time", "end_time", "traffic_class")
        )
        return zip(requester, request, end, [c != _NON_EXCHANGE_CODE for c in codes])

    def download_rows_since(
        self, start: int
    ) -> Iterator[Tuple[int, float, float, float]]:
        """``(peer_id, request_time, complete_time, download_time)`` rows."""
        peer, request, complete = self._downloads.rows_since(
            start, ("peer_id", "request_time", "complete_time")
        )
        return zip(peer, request, complete, [c - r for c, r in zip(complete, request)])

    # ------------------------------------------------------------------
    def storage_nbytes(self) -> int:
        """Resident metrics footprint in bytes (staging tails excluded):
        kept chunks plus what the folds retain."""
        return (
            self._sessions.nbytes()
            + self._downloads.nbytes()
            + self._epochs.nbytes()
            + self._session_fold.nbytes()
            + self._download_fold.nbytes()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarCollector(sessions={len(self._sessions)}, "
            f"downloads={len(self._downloads)})"
        )
