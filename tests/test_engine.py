"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Engine().now == 0.0

    def test_custom_start_time(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_schedule_returns_event_with_fire_time(self):
        engine = Engine()
        event = engine.schedule(3.5, lambda: None, name="x")
        assert event.time == 3.5
        assert event.name == "x"

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run(until=5.0)
        with pytest.raises(SchedulingError):
            engine.schedule_at(4.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_times_rejected(self, bad):
        # NaN compares False against everything, so a NaN entry would
        # silently break heap order; inf would park an unreachable event.
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.schedule_at(bad, lambda: None)
        with pytest.raises(SchedulingError):
            engine.schedule(bad, lambda: None)
        assert engine.events_pending == 0
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.run(until=2.0)
        assert fired == [1]

    def test_schedule_at_current_time_allowed(self):
        engine = Engine()
        fired = []
        engine.schedule_at(0.0, lambda: fired.append(1))
        engine.run(until=0.0)
        assert fired == [1]


class TestExecution:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(3.0, lambda: order.append("c"))
        engine.run(until=10.0)
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        engine = Engine()
        order = []
        for label in ("first", "second", "third"):
            engine.schedule(1.0, lambda l=label: order.append(l))
        engine.run(until=1.0)
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(4.25, lambda: seen.append(engine.now))
        engine.run(until=10.0)
        assert seen == [4.25]

    def test_run_until_stops_before_later_events(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run(until=2.0)
        assert fired == [1]
        assert engine.now == 2.0  # clock advanced to the horizon

    def test_event_at_horizon_fires(self):
        engine = Engine()
        fired = []
        engine.schedule(2.0, lambda: fired.append(1))
        engine.run(until=2.0)
        assert fired == [1]

    def test_run_requires_bound(self):
        with pytest.raises(SimulationError):
            Engine().run()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_until_rejected(self, bad):
        # NaN compares False against every event time, so the loop would
        # never stop on it; an infinite clock rejects every later schedule.
        engine = Engine()
        engine.schedule(1.0, lambda: engine.schedule(1.0, lambda: None))
        with pytest.raises(SimulationError):
            engine.run(until=bad, max_events=100)
        assert engine.now == 0.0
        assert engine.events_fired == 0
        assert engine.run(until=1.5) == 1

    def test_max_events_bound(self):
        engine = Engine()
        fired = []

        def reschedule():
            fired.append(engine.now)
            engine.schedule(1.0, reschedule)

        engine.schedule(1.0, reschedule)
        count = engine.run(max_events=5)
        assert count == 5
        assert len(fired) == 5

    def test_events_scheduled_during_run_fire(self):
        engine = Engine()
        order = []

        def outer():
            order.append("outer")
            engine.schedule(0.0, lambda: order.append("inner"))

        engine.schedule(1.0, outer)
        engine.run(until=1.0)
        assert order == ["outer", "inner"]

    def test_step_returns_fired_event(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None, name="only")
        event = engine.step()
        assert event is not None and event.name == "only"
        assert engine.step() is None

    def test_reentrant_run_rejected(self):
        engine = Engine()

        def nested():
            engine.run(until=10.0)

        engine.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            engine.run(until=5.0)


def _kinds(counts):
    """The per-kind fire counts: every key without a dot."""
    return {name: count for name, count in counts.items() if "." not in name}


class TestFireCounts:
    """``step()`` and ``run()`` count each fire once, also when it raises."""

    def test_mixed_step_and_run_count_every_fire(self):
        engine = Engine()
        for delay in range(1, 6):
            engine.schedule(float(delay), lambda: None, name="tick")
        engine.step()
        engine.step()
        assert engine.run(until=10.0) == 3
        counts = engine.counters.counts
        assert _kinds(counts) == {"tick": 5}
        assert sum(_kinds(counts).values()) == counts["engine.fired"] == engine.events_fired

    def test_raising_callback_is_counted(self):
        engine = Engine()

        def boom():
            raise RuntimeError("boom")

        engine.schedule(1.0, lambda: None, name="ok")
        engine.schedule(2.0, boom, name="boom")
        engine.schedule(3.0, lambda: None, name="ok")
        with pytest.raises(RuntimeError):
            engine.run(until=5.0)
        counts = engine.counters.counts
        assert _kinds(counts) == {"ok": 1, "boom": 1}
        assert sum(_kinds(counts).values()) == counts["engine.fired"] == engine.events_fired
        with pytest.raises(RuntimeError):
            engine.schedule(4.0, boom, name="boom")
            engine.step()
            engine.step()
        assert _kinds(counts) == {"ok": 2, "boom": 2}
        assert sum(_kinds(counts).values()) == counts["engine.fired"] == engine.events_fired

    def test_step_rearms_a_periodic_event(self):
        engine = Engine()
        times = []
        event = engine.schedule_every(1.0, 2.0, lambda: times.append(engine.now), name="p.x")
        for _ in range(3):
            assert engine.step() is event
        assert times == [1.0, 3.0, 5.0]
        assert event.time == 7.0 and engine.events_pending == 1
        assert engine.counters.counts == {"p": 3, "engine.fired": 3}

    def test_step_inside_a_callback_is_rejected(self):
        engine = Engine()
        engine.schedule(1.0, engine.step)
        engine.schedule(2.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.run(until=5.0)


class TestScheduleEvery:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_interval_must_be_finite_and_positive(self, bad):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.schedule_every(1.0, bad, lambda: None)
        assert engine.events_pending == 0

    def test_one_event_fires_at_every_interval(self):
        engine = Engine()
        times = []
        event = engine.schedule_every(0.5, 1.5, lambda: times.append(engine.now), name="p")
        engine.run(until=5.0)
        assert times == [0.5, 2.0, 3.5, 5.0]
        assert event.interval == 1.5 and event.time == 6.5
        assert engine.events_pending == 1

    def test_rearm_draws_seq_before_the_callback(self):
        # A one-shot scheduled by the callback for the re-armed instant
        # fires after the periodic event, as it did when the process
        # scheduled a fresh event before running its callback.
        engine = Engine()
        order = []

        def tick():
            order.append("tick")
            if len(order) == 1:
                engine.schedule(1.0, lambda: order.append("once"))

        engine.schedule_every(1.0, 1.0, tick)
        engine.run(until=2.0)
        assert order == ["tick", "tick", "once"]

    def test_cancel_ends_the_series(self):
        engine = Engine()
        fired = []
        holder = {}

        def tick():
            fired.append(engine.now)
            if len(fired) == 2:
                holder["event"].cancel()

        holder["event"] = engine.schedule_every(1.0, 1.0, tick)
        engine.run(until=10.0)
        assert fired == [1.0, 2.0]
        assert engine.cancelled_skipped == 1 and engine.events_pending == 0


class TestUntilMaxEventsInterplay:
    """Regression: run(until=..., max_events=...) must not fast-forward
    the clock past events still in the heap (the clock would then move
    backwards on the next step/run and schedule_at would reject valid
    times)."""

    def _engine_with_ladder(self):
        engine = Engine()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            engine.schedule(t, lambda t=t: fired.append(t))
        return engine, fired

    def test_early_stop_leaves_clock_at_last_fired_event(self):
        engine, fired = self._engine_with_ladder()
        engine.run(until=10.0, max_events=2)
        assert fired == [1.0, 2.0]
        assert engine.now == 2.0  # not 10.0

    def test_now_never_ahead_of_pending_event(self):
        engine, _fired = self._engine_with_ladder()
        engine.run(until=10.0, max_events=2)
        assert engine.peek_time() is not None
        assert engine.now <= engine.peek_time()

    def test_resumed_run_fires_remaining_events_in_order(self):
        engine, fired = self._engine_with_ladder()
        engine.run(until=10.0, max_events=2)
        engine.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert engine.now == 10.0  # heap drained: clock reaches the horizon

    def test_step_after_early_stop_does_not_move_clock_backwards(self):
        engine, _fired = self._engine_with_ladder()
        engine.run(until=10.0, max_events=2)
        event = engine.step()
        assert event is not None and event.time == 3.0
        assert engine.now == 3.0

    def test_schedule_at_valid_time_after_early_stop(self):
        engine, fired = self._engine_with_ladder()
        engine.run(until=10.0, max_events=2)
        # 2.5 is after the clock (2.0) but before the undrained events;
        # before the fix the clock sat at 10.0 and this raised.
        engine.schedule_at(2.5, lambda: fired.append(2.5))
        engine.run(until=10.0)
        assert fired == [1.0, 2.0, 2.5, 3.0, 4.0, 5.0]

    def test_clock_advances_when_remaining_events_are_past_until(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1.0))
        engine.schedule(20.0, lambda: fired.append(20.0))
        engine.run(until=10.0, max_events=5)
        assert fired == [1.0]
        assert engine.now == 10.0  # nothing pending at or before until

    def test_clock_advances_when_only_cancelled_events_remain(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None).cancel()
        engine.run(until=10.0, max_events=1)
        assert engine.now == 10.0  # the cancelled event does not hold it back


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        engine.run(until=5.0)
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_cancelled_events_not_counted_as_fired(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None)
        engine.run(until=5.0)
        assert engine.events_fired == 1

    def test_peek_time_skips_cancelled(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None)
        assert engine.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert Engine().peek_time() is None

    def test_peek_time_accounts_discarded_cancelled_events(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None).cancel()
        engine.schedule(3.0, lambda: None)
        assert engine.events_pending == 3
        assert engine.peek_time() == 3.0
        assert engine.cancelled_skipped == 2
        assert engine.events_pending == 1  # cancelled heads were popped

    def test_run_accounts_cancelled_skips(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None)
        engine.run(until=5.0)
        assert engine.cancelled_skipped == 1
        assert engine.events_fired == 1


class TestPropertyBased:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_firing_times_are_sorted(self, delays):
        engine = Engine()
        times = []
        for delay in delays:
            engine.schedule(delay, lambda: times.append(engine.now))
        engine.run(until=1001.0)
        assert times == sorted(times)
        assert len(times) == len(delays)

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=30,
        ),
        cancel_index=st.integers(min_value=0, max_value=29),
    )
    def test_cancelling_one_leaves_others(self, delays, cancel_index):
        engine = Engine()
        fired = []
        events = [
            engine.schedule(delay, lambda i=i: fired.append(i))
            for i, delay in enumerate(delays)
        ]
        victim = events[cancel_index % len(events)]
        victim.cancel()
        engine.run(until=101.0)
        assert len(fired) == len(delays) - 1
        assert (cancel_index % len(delays)) not in fired


#: Delays in quarter seconds, 0..10 s: equal-time ties are common, and the
#: range reaches well past any short near-future window a store might keep.
_QUARTERS = st.integers(min_value=0, max_value=40)

#: One program step: schedule ``copies`` events ``q`` quarters ahead
#: (each with an optional follow-up ``f`` quarters after it fires),
#: cancel ``handles[start::stride]``, ``run(until, max_events)`` or ``step()``.
#: Bursts of 80 copies let a bulk cancel leave a field of tombstones.
_COPIES = st.integers(1, 4) | st.just(80)
_STRIDE = st.integers(1, 3) | st.integers(4, 64)
_PROGRAM = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _QUARTERS, st.none() | _QUARTERS, _COPIES),
        st.tuples(st.just("cancel"), st.integers(0, 200), _STRIDE),
        st.tuples(st.just("run"), _QUARTERS, st.none() | st.integers(0, 8)),
        st.tuples(st.just("step")),
    ),
    max_size=30,
)


class TestReferenceModel:
    """The engine against a list-based reference scheduler.

    The reference keeps every scheduled event in a plain list (index ==
    scheduling order == ``seq``) and fires the pending entry with the
    smallest ``(time, seq)`` — the order the engine promises.  A store
    that reorders equal-time ties, loses a far-future event, fires a
    cancelled one or loses track of an entry diverges here: every
    scheduled entry is fired, discarded as cancelled, or still stored.
    """

    @settings(max_examples=400, deadline=None)
    @given(program=_PROGRAM)
    def test_engine_matches_reference(self, program):
        engine = Engine()
        handles, fired = [], []
        ref, ref_fired = [], []  # ref entries: [time, follow_up, state]
        ref_now = 0.0

        def schedule(time, follow):
            ident = len(handles)

            def callback():
                fired.append(ident)
                if follow is not None:
                    schedule(engine.now + follow / 4, None)

            handles.append(engine.schedule_at(time, callback))

        def ref_next():
            pending = [(t, s) for s, (t, _f, state) in enumerate(ref) if state == "pending"]
            return min(pending) if pending else None

        def ref_fire(seq):
            nonlocal ref_now
            entry = ref[seq]
            entry[2] = "fired"
            ref_now = entry[0]
            ref_fired.append(seq)
            if entry[1] is not None:
                ref.append([ref_now + entry[1] / 4, None, "pending"])

        for op, *args in program:
            if op == "at":
                quarters, follow, copies = args
                for _ in range(copies):
                    schedule(engine.now + quarters / 4, follow)
                    ref.append([ref_now + quarters / 4, follow, "pending"])
                continue
            if op == "cancel":
                start, stride = args
                for index in range(start % max(len(ref), 1), len(ref), stride):
                    handles[index].cancel()
                    if ref[index][2] == "pending":
                        ref[index][2] = "cancelled"
                continue
            if op == "step":
                nxt = ref_next()
                event = engine.step()
                assert (event is None) == (nxt is None)
                if nxt is not None:
                    ref_fire(nxt[1])
            else:
                quarters, max_events = args
                until = engine.now + quarters / 4
                count = 0
                while max_events is None or count < max_events:
                    nxt = ref_next()
                    if nxt is None or nxt[0] > until:
                        break
                    ref_fire(nxt[1])
                    count += 1
                nxt = ref_next()
                due_fired = nxt is None or nxt[0] > until
                if due_fired:
                    ref_now = until
                assert engine.run(until=until, max_events=max_events) == count
                if due_fired:
                    assert engine.now == until
                else:
                    assert engine.now <= engine.peek_time()
            nxt = ref_next()
            assert fired == ref_fired
            assert engine.events_fired == len(ref_fired)
            assert engine.now == ref_now
            assert engine.peek_time() == (None if nxt is None else nxt[0])
            assert len(handles) == len(ref)
            stored = engine.events_pending + engine.cancelled_skipped
            assert len(handles) == engine.events_fired + stored


class TestCancellationPurgeCost:
    """Cancellation stays O(N log M) — asserted on counters, not clocks.

    ``cancelled_skipped`` counts every discard of a cancelled entry.
    Each tombstone must be popped exactly once, regardless of how many
    live events surround it — a scheduler that rescanned or rebuilt per
    cancel would discard (or re-touch) entries in proportion to the
    population and break the exact equality.
    """

    def _run_with_cancels(self, population: int, cancels: int) -> Engine:
        engine = Engine()
        events = [
            engine.schedule(1.0 + (i % 977) * 0.01, lambda: None)
            for i in range(population)
        ]
        for event in events[:cancels]:
            event.cancel()
        engine.run(until=1_000.0)
        return engine

    def test_purge_work_is_population_independent(self):
        small = self._run_with_cancels(1_000, 400)
        large = self._run_with_cancels(16_000, 400)
        assert small.cancelled_skipped == 400
        assert large.cancelled_skipped == 400  # same N, 16x the M: same cost
        assert small.events_fired == 1_000 - 400
        assert large.events_fired == 16_000 - 400

    def test_mass_cancellation_pops_each_tombstone_once(self):
        """Cancelling most of the heap costs one pop per cancel."""
        engine = self._run_with_cancels(1_000, 900)
        assert engine.cancelled_skipped == 900
        assert engine.events_fired == 100
        assert engine.events_pending == 0

    def test_mass_cancel_inside_a_running_loop(self):
        """A callback's mass cancel leaves tombstones the loop skips."""
        engine = Engine()
        fired = []
        victims = [engine.schedule(2.0 + i, lambda: None) for i in range(100)]
        for t in (1.0, 50.5, 150.0):
            engine.schedule(t, lambda t=t: fired.append(t))
        engine.schedule(1.5, lambda: [event.cancel() for event in victims])
        engine.run(until=200.0)
        assert fired == [1.0, 50.5, 150.0]
        assert engine.events_fired == 4
        assert engine.cancelled_skipped == 100

    def test_cancel_after_cancel_costs_nothing_extra(self):
        engine = Engine()
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(100)]
        for event in events[:30]:
            event.cancel()
            event.cancel()  # idempotent: must not double-count purge work
        engine.run(until=200.0)
        assert engine.cancelled_skipped == 30
        assert engine.events_fired == 70
