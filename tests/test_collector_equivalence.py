"""Per-record fold equivalence: the collector equals a record-order loop.

:class:`~repro.metrics.columnar.ColumnarCollector` folds every record
into running aggregates as it lands.  Its contract is that every
summary input equals, float for float and dict key for dict key, the
per-record loop the golden tables were first computed with
(:class:`Oracle` below).  Three layers of evidence:

* a hypothesis property over synthetic record streams, with queries
  and row-feed reads mid-stream, comparing every summary input, the row
  feeds, the record views and the full ``summarize()`` dict serialized
  to JSON (key order included);
* unit checks that returned aggregates are caller-owned, that the fold
  is the record-order left fold, and that released rows stay released;
* end-to-end runs at (shortened) smoke scale across mechanisms, a
  scenario timeline, strategy dynamics and the attack cells, each run
  once with ``keep_records=True`` and its folds compared against the
  oracle over its own records, plus a check that ``keep_records``
  itself moves nothing.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MetricsError
from repro.experiments.presets import (
    adversarial_config,
    adversarial_scenario,
    flash_crowd_scenario,
    preset,
)
from repro.metrics.columnar import ColumnarCollector, SessionAggregates
from repro.metrics.records import (
    DownloadRecord,
    SessionRecord,
    StrategyEpochRecord,
    TerminationReason,
    TrafficClass,
)
from repro.metrics.summary import summarize
from repro.simulation import run_simulation
from repro.strategy import StrategySpec

from tests.helpers import run_with_records

CLASSES = list(TrafficClass)
REASONS = list(TerminationReason)
PHASES = ["", "steady", "flash", "decay"]
PEER_CLASSES = ["", "sharer", "freeloader", "broadband"]

# Record invariants (records.py __post_init__): sessions end at or
# after they start, downloads complete at or after the request, epoch
# sharing counts stay within the enrolled population.  Timestamps are
# built as base + non-negative deltas so generated records are valid.
session_args = st.builds(
    lambda request_time, wait, length, rest: dict(
        request_time=request_time,
        start_time=request_time + wait,
        end_time=request_time + wait + length,
        **rest,
    ),
    request_time=st.floats(0.0, 5_000.0),
    wait=st.floats(0.0, 5_000.0),
    length=st.floats(0.0, 10_000.0),
    rest=st.fixed_dictionaries(
        {
            "provider_id": st.integers(0, 40),
            "requester_id": st.integers(0, 40),
            "object_id": st.integers(0, 200),
            "traffic_class": st.sampled_from(CLASSES),
            "ring_size": st.integers(0, 6),
            "ring_id": st.one_of(st.none(), st.integers(1, 500)),
            "kbit_transferred": st.floats(0.0, 1e6),
            "reason": st.sampled_from(REASONS),
            "requester_is_sharer": st.booleans(),
            "requester_class": st.sampled_from(PEER_CLASSES),
            "phase": st.sampled_from(PHASES),
        }
    ),
)

download_args = st.builds(
    lambda request_time, length, rest: dict(
        request_time=request_time,
        complete_time=request_time + length,
        **rest,
    ),
    request_time=st.floats(0.0, 5_000.0),
    length=st.floats(0.0, 15_000.0),
    rest=st.fixed_dictionaries(
        {
            "peer_id": st.integers(0, 40),
            "object_id": st.integers(0, 200),
            "size_kbit": st.floats(0.0, 1e6),
            "peer_is_sharer": st.booleans(),
            "class_name": st.sampled_from(PEER_CLASSES),
            "phase": st.sampled_from(PHASES),
        }
    ),
)

epoch_args = st.builds(
    lambda enrolled, sharing_fraction, rest: dict(
        enrolled=enrolled,
        sharing=min(enrolled, int(enrolled * sharing_fraction)),
        **rest,
    ),
    enrolled=st.integers(0, 40),
    sharing_fraction=st.floats(0.0, 1.0),
    rest=st.fixed_dictionaries(
        {
            "time": st.floats(0.0, 20_000.0),
            "epoch": st.integers(1, 50),
            "revised": st.integers(0, 40),
            "switched_to_sharing": st.integers(0, 10),
            "switched_to_freeloading": st.integers(0, 10),
            "mean_payoff_sharing": st.one_of(
                st.none(), st.floats(-100.0, 100.0)
            ),
            "mean_payoff_freeloading": st.one_of(
                st.none(), st.floats(-100.0, 100.0)
            ),
            "phase": st.sampled_from(PHASES),
        }
    ),
)

# Adversary bookkeeping arrives through the counter surface; the
# summary's robustness fields read these names plus the by-class views.
ADVERSARY_COUNTERS = [
    "adversary.whitewash",
    "adversary.blacklist_hit",
    "adversary.blacklist_evasion",
    "adversary.sybil_identities",
    "adversary.collusion_refusal",
]

counter_args = st.fixed_dictionaries(
    {
        "name": st.sampled_from(ADVERSARY_COUNTERS),
        "n": st.integers(1, 50),
    }
)

stream = st.lists(
    st.one_of(
        st.tuples(st.just("session"), session_args),
        st.tuples(st.just("download"), download_args),
        st.tuples(st.just("epoch"), epoch_args),
        st.tuples(st.just("count"), counter_args),
    ),
    max_size=60,
)


class Oracle:
    """Record-order reference for the collector's summary inputs.

    The per-record loops kept here as the specification the collector's
    fold must reproduce: same IEEE operations in the same order, dict
    keys in first-occurrence order.
    """

    def __init__(self, sessions, downloads, epochs, counters, warmup):
        self.sessions = [s for s in sessions if s.end_time >= warmup]
        self.downloads = [d for d in downloads if d.complete_time >= warmup]
        self.epochs = epochs
        self.counters = counters

    def download_times(self, sharer=None):
        return [
            d.download_time
            for d in self.downloads
            if sharer is None or d.peer_is_sharer == sharer
        ]

    def _grouped_times(self, label_of):
        grouped = {}
        for record in self.downloads:
            label = label_of(record)
            if label:
                grouped.setdefault(label, []).append(record.download_time)
        return grouped

    def download_times_by_class(self):
        return self._grouped_times(
            lambda d: d.class_name or ("sharer" if d.peer_is_sharer else "freeloader")
        )

    def download_times_by_phase(self):
        return self._grouped_times(lambda d: d.phase)

    def session_aggregates(self):
        agg = SessionAggregates()
        for session in self.sessions:
            agg.total_sessions += 1
            label = session.traffic_class.value
            agg.session_counts[label] = agg.session_counts.get(label, 0) + 1
            agg.volume_kb_by_class.setdefault(label, []).append(
                session.kbit_transferred / 8.0
            )
            agg.waiting_min_by_class.setdefault(label, []).append(
                session.waiting_time / 60.0
            )
            is_exchange = session.traffic_class.is_exchange
            agg.exchange_sessions += is_exchange
            if session.requester_is_sharer:
                agg.sharer_kbit += session.kbit_transferred
            else:
                agg.freeloader_kbit += session.kbit_transferred
            peer_class = session.requester_class or (
                "sharer" if session.requester_is_sharer else "freeloader"
            )
            agg.kbit_by_peer_class[peer_class] = (
                agg.kbit_by_peer_class.get(peer_class, 0.0) + session.kbit_transferred
            )
            if session.phase:
                phase = session.phase
                agg.phase_counts[phase] = agg.phase_counts.get(phase, 0) + 1
                agg.phase_exchange_counts[phase] = (
                    agg.phase_exchange_counts.get(phase, 0) + is_exchange
                )
        return agg

    def sharing_fraction_by_epoch(self):
        epochs = sorted(self.epochs, key=lambda r: (r.time, r.epoch))
        return [[record.time, record.sharing_fraction] for record in epochs]


def summary_json(collector) -> str:
    summary = summarize(collector, num_sharers=20, num_freeloaders=20)
    # A second pass with one class marked adversarial exercises the
    # robustness fields (volumes, honest/adversary means, hit counts)
    # over the same records.
    adversarial = summarize(
        collector,
        num_sharers=20,
        num_freeloaders=20,
        adversary_classes=("freeloader",),
    )
    return json.dumps([summary.to_dict(), adversarial.to_dict()], sort_keys=False)


def assert_summary_inputs_match(collector, oracle):
    for sharer in (None, True, False):
        assert collector.download_times(sharer=sharer) == oracle.download_times(sharer)
    for view in ("download_times_by_class", "download_times_by_phase"):
        left = getattr(collector, view)()
        right = getattr(oracle, view)()
        assert list(left.items()) == list(right.items())
    assert dataclasses.asdict(collector.session_aggregates()) == dataclasses.asdict(
        oracle.session_aggregates()
    )
    assert collector.sharing_fraction_by_epoch() == oracle.sharing_fraction_by_epoch()
    assert summary_json(collector) == summary_json(oracle)


def _feed(collector, events):
    for kind, kwargs in events:
        if kind == "session":
            collector.add_session(**kwargs)
        elif kind == "download":
            collector.add_download(**kwargs)
        elif kind == "count":
            collector.count(kwargs["name"], kwargs["n"])
        else:
            collector.add_strategy_epoch(**kwargs)


def _records(events):
    """The stream as records, plus the counters it must leave behind."""
    sessions, downloads, epochs = [], [], []
    counters: Counter = Counter()
    for kind, kwargs in events:
        if kind == "session":
            sessions.append(SessionRecord(**kwargs))
            counters[f"session.{kwargs['traffic_class'].value}"] += 1
            counters[f"session.reason.{kwargs['reason'].value}"] += 1
        elif kind == "download":
            downloads.append(DownloadRecord(**kwargs))
            sharer = kwargs["peer_is_sharer"]
            counters["download.sharer" if sharer else "download.freeloader"] += 1
        elif kind == "count":
            counters[kwargs["name"]] += kwargs["n"]
        else:
            epochs.append(StrategyEpochRecord(**kwargs))
    return sessions, downloads, epochs, counters


def _session_rows(sessions):
    return [
        (s.requester_id, s.request_time, s.end_time, s.traffic_class.is_exchange)
        for s in sessions
    ]


def _download_rows(downloads):
    return [
        (d.peer_id, d.request_time, d.complete_time, d.download_time)
        for d in downloads
    ]


@settings(max_examples=80, deadline=None)
@given(
    events=stream,
    warmup=st.sampled_from([0.0, 1_000.0, 10_000.0]),
    keep_records=st.booleans(),
    follow_at=st.floats(0.0, 0.5),
)
def test_property_identical_over_synthetic_streams(
    events, warmup, keep_records, follow_at
):
    """Any stream: the fold answers like the oracle.

    A row reader starts following part-way in (like a strategy director
    created mid-run) and reads mid-stream and at the end; summary
    queries are asked mid-stream too, so a query must not mutate the
    fold or lose rows.
    """
    collector = ColumnarCollector(warmup=warmup, keep_records=keep_records)
    follow, half = int(len(events) * follow_at), len(events) // 2
    _feed(collector, events[:follow])
    session_cursor, download_cursor = collector.follow_rows()
    first = (session_cursor, download_cursor)
    _feed(collector, events[follow:half])
    session_rows = list(collector.session_rows_since(session_cursor))
    download_rows = list(collector.download_rows_since(download_cursor))
    session_cursor, download_cursor = collector.num_sessions, collector.num_downloads
    collector.download_times()
    collector.session_aggregates()
    _feed(collector, events[half:])
    session_rows += collector.session_rows_since(session_cursor)
    download_rows += collector.download_rows_since(download_cursor)

    sessions, downloads, epochs, counters = _records(events)
    assert session_rows == _session_rows(sessions[first[0]:])
    assert download_rows == _download_rows(downloads[first[1]:])
    assert collector.counters == counters
    oracle = Oracle(sessions, downloads, epochs, counters, warmup)
    assert_summary_inputs_match(collector, oracle)
    # Asking twice is idempotent (no re-fold, no mutation leaks).
    assert_summary_inputs_match(collector, oracle)
    if keep_records:
        # The record views hold the exact dataclasses.
        assert collector.sessions == sessions
        assert collector.downloads == downloads
        assert collector.strategy_epochs == epochs


def _session(i):
    return dict(
        provider_id=i,
        requester_id=i + 1,
        object_id=i % 50,
        traffic_class=list(TrafficClass)[i % 2],
        ring_size=2,
        ring_id=None,
        request_time=10.0 * i,
        start_time=10.0 * i + 1.0,
        end_time=10.0 * i + 2.0,
        kbit_transferred=50.0,
        reason=list(TerminationReason)[0],
        requester_is_sharer=i % 2 == 0,
    )


def _download(i):
    return dict(
        peer_id=i,
        object_id=i,
        request_time=10.0 * i,
        complete_time=10.0 * i + 5.0,
        size_kbit=100.0,
        peer_is_sharer=i % 2 == 0,
    )


def test_mutating_a_returned_aggregate_does_not_corrupt_state():
    collector = ColumnarCollector()
    for i in range(9):
        collector.add_download(**_download(i))
        collector.add_session(**_session(i))
    agg = collector.session_aggregates()
    agg.session_counts.clear()
    for values in agg.volume_kb_by_class.values():
        values.append(1e9)
    collector.download_times().append(1e9)
    sessions = [SessionRecord(**_session(i)) for i in range(9)]
    downloads = [DownloadRecord(**_download(i)) for i in range(9)]
    oracle = Oracle(sessions, downloads, [], collector.counters, 0.0)
    assert_summary_inputs_match(collector, oracle)


def test_fold_is_the_record_order_left_fold():
    """Volumes whose sum depends on how it is taken: 1e16 absorbs each
    lone 1.0 (half an ulp), so the record-order left fold stays at 1e16,
    while a compensated sum (builtin ``sum()`` over floats from CPython
    3.12) reaches 1.0000000000000008e16."""
    collector = ColumnarCollector()
    sessions = []
    for i, kbit in enumerate([1e16] + [1.0] * 8):
        kwargs = dict(_session(i), kbit_transferred=kbit, requester_is_sharer=True)
        collector.add_session(**kwargs)
        sessions.append(SessionRecord(**kwargs))
    oracle = Oracle(sessions, [], [], collector.counters, 0.0)
    assert collector.session_aggregates().sharer_kbit == 1e16
    assert_summary_inputs_match(collector, oracle)


def test_released_rows_cannot_be_read():
    collector = ColumnarCollector()
    for i in range(5):
        collector.add_session(**_session(i))
    assert collector.follow_rows() == (5, 0)
    with pytest.raises(MetricsError, match="follow_rows"):
        collector.session_rows_since(0)
    assert collector.session_rows_since(5) == []
    collector.add_session(**_session(5))
    assert len(collector.session_rows_since(5)) == 1
    with pytest.raises(MetricsError, match="follow_rows"):
        collector.session_rows_since(5)


def test_folds_and_a_follower_keep_a_fraction_of_the_records():
    """Metrics memory stays flat: the fold keeps two values per session
    (a kept record has fourteen fields), and a reader's feed holds only
    the rows it has not read yet."""
    recording = ColumnarCollector(keep_records=True)
    folding = ColumnarCollector()
    follower = ColumnarCollector()
    cursor = follower.follow_rows()[0]
    for i in range(20_000):
        for collector in (recording, folding, follower):
            collector.add_session(**_session(i))
        if i % 1_000 == 999:
            assert follower.storage_nbytes() > folding.storage_nbytes()
            follower.session_rows_since(cursor)
            cursor = follower.num_sessions
            assert follower.storage_nbytes() == folding.storage_nbytes()
    assert folding.storage_nbytes() < recording.storage_nbytes() / 3


def test_keep_records_run_identical_to_default():
    """Keeping every record is invisible: same trajectory, counters and
    byte-identical summary as a run whose collector only folds."""
    config = preset("smoke", duration=9_000.0, warmup=3_000.0)
    default = run_simulation(config)
    recording = run_with_records(config)
    assert default.events_fired == recording.events_fired
    assert dict(default.metrics.counters) == dict(recording.metrics.counters)
    left = json.dumps(default.summary.to_dict(), sort_keys=False)
    right = json.dumps(recording.summary.to_dict(), sort_keys=False)
    assert left == right
    assert default.metrics.storage_nbytes() < recording.metrics.storage_nbytes()


def _shrunk_smoke(**overrides):
    """Smoke preset with a third of the window so the runs stay fast."""
    return preset("smoke", duration=9_000.0, warmup=3_000.0, **overrides)


def _shrunk_adversarial(mechanism, attack):
    """An adversarial robustness cell with a third of the smoke window."""
    config = adversarial_config("smoke", mechanism, attack, 42).replace(
        scenario=(),
        duration=12_000.0,
        warmup=3_000.0,
    )
    return config.replace(scenario=adversarial_scenario(attack, config))


CELLS = {
    "exchange-2-5-way": lambda: _shrunk_smoke(exchange_mechanism="2-5-way"),
    "pairwise-credit": lambda: _shrunk_smoke(
        exchange_mechanism="pairwise", scheduler_mode="credit"
    ),
    "flashcrowd-scenario": lambda: (
        lambda base: dataclasses.replace(
            base, scenario=flash_crowd_scenario(base)
        )
    )(_shrunk_smoke(exchange_mechanism="2-5-way")),
    "strategy-dynamics": lambda: _shrunk_smoke(
        exchange_mechanism="2-5-way",
        strategy=StrategySpec(
            rule="best-response",
            start=3_000.0,
            revision_period=1_000.0,
            window=3_000.0,
        ),
    ),
    "adversarial-whitewash": lambda: _shrunk_adversarial("credit", "whitewash"),
    "adversarial-sybil": lambda: _shrunk_adversarial("participation", "sybil"),
    "adversarial-collusion": lambda: _shrunk_adversarial("exchange", "collusion"),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_end_to_end_runs_identical(cell):
    config = CELLS[cell]()
    result = run_with_records(config)
    metrics = result.metrics
    assert metrics.sessions and metrics.downloads
    oracle = Oracle(
        metrics.sessions,
        metrics.downloads,
        metrics.strategy_epochs,
        metrics.counters,
        config.warmup,
    )
    assert_summary_inputs_match(metrics, oracle)
