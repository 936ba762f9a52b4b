"""Unit tests for periodic processes."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.processes import PeriodicProcess


class TestPeriodicProcess:
    def test_fires_every_interval(self):
        engine = Engine()
        times = []
        PeriodicProcess(engine, 10.0, lambda: times.append(engine.now))
        engine.run(until=35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_custom_start_delay(self):
        engine = Engine()
        times = []
        PeriodicProcess(engine, 10.0, lambda: times.append(engine.now), start_delay=3.0)
        engine.run(until=25.0)
        assert times == [3.0, 13.0, 23.0]

    def test_zero_start_delay_fires_immediately(self):
        engine = Engine()
        times = []
        PeriodicProcess(engine, 10.0, lambda: times.append(engine.now), start_delay=0.0)
        engine.run(until=5.0)
        assert times == [0.0]

    def test_stop_halts_firing(self):
        engine = Engine()
        times = []
        process = PeriodicProcess(engine, 10.0, lambda: times.append(engine.now))
        engine.run(until=15.0)
        process.stop()
        engine.run(until=100.0)
        assert times == [10.0]
        assert process.stopped

    def test_stop_from_inside_callback(self):
        engine = Engine()
        holder = {}
        times = []

        def callback():
            times.append(engine.now)
            holder["process"].stop()

        holder["process"] = PeriodicProcess(engine, 10.0, callback)
        engine.run(until=100.0)
        assert times == [10.0]
        assert engine.events_pending == 0

    def test_callback_exception_does_not_kill_process(self):
        engine = Engine()
        count = [0]

        def flaky():
            count[0] += 1
            if count[0] == 1:
                raise RuntimeError("transient")

        PeriodicProcess(engine, 10.0, flaky)
        with pytest.raises(RuntimeError):
            engine.run(until=100.0)
        # The next firing was scheduled before the exception propagated.
        engine.run(until=100.0)
        assert count[0] > 1

    def test_non_positive_interval_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            PeriodicProcess(engine, 0.0, lambda: None)

    @pytest.mark.parametrize(
        "interval, start_delay",
        [
            (math.nan, None),  # every firing would reschedule at the same instant
            (math.inf, 0.0),  # fine at first, fails on the first reschedule
            (10.0, math.nan),
            (10.0, math.inf),
            (10.0, -1.0),
        ],
    )
    def test_non_finite_or_negative_timing_rejected(self, interval, start_delay):
        engine = Engine()
        with pytest.raises(SimulationError):
            PeriodicProcess(engine, interval, lambda: None, start_delay=start_delay)
        assert engine.events_pending == 0

    @pytest.mark.parametrize("start_delay", [math.nan, math.inf, -1.0])
    def test_bad_resume_delay_rejected_and_process_stays_paused(self, start_delay):
        engine = Engine()
        times = []
        process = PeriodicProcess(engine, 10.0, lambda: times.append(engine.now))
        process.pause()
        with pytest.raises(SimulationError):
            process.resume(start_delay=start_delay)
        assert process.paused
        process.resume(start_delay=1.0)
        engine.run(until=5.0)
        assert times == [1.0]

    def test_pause_stops_firing_and_schedules_nothing(self):
        engine = Engine()
        times = []
        process = PeriodicProcess(engine, 10.0, lambda: times.append(engine.now))
        engine.run(until=15.0)
        assert times == [10.0]
        process.pause()
        assert process.paused
        engine.run(until=500.0)
        # Not merely "the callback early-returns": the event heap is
        # empty, so a paused process costs zero events.
        assert times == [10.0]
        assert engine.events_pending == 0

    def test_resume_restarts_with_fresh_stagger(self):
        engine = Engine()
        times = []
        process = PeriodicProcess(engine, 10.0, lambda: times.append(engine.now))
        engine.run(until=15.0)
        process.pause()
        engine.run(until=100.0)
        process.resume(start_delay=3.0)
        assert not process.paused
        engine.run(until=125.0)
        assert times == [10.0, 103.0, 113.0, 123.0]

    def test_resume_without_delay_uses_interval(self):
        engine = Engine()
        times = []
        process = PeriodicProcess(engine, 10.0, lambda: times.append(engine.now))
        engine.run(until=10.0)
        process.pause()
        engine.run(until=50.0)
        process.resume()
        engine.run(until=65.0)
        assert times == [10.0, 60.0]

    def test_pause_resume_idempotent_and_stop_wins(self):
        engine = Engine()
        times = []
        process = PeriodicProcess(engine, 10.0, lambda: times.append(engine.now))
        process.pause()
        process.pause()  # no-op
        process.resume()
        process.resume()  # no-op
        process.stop()
        process.pause()  # no-op once stopped
        process.resume()  # must not revive a stopped process
        engine.run(until=100.0)
        assert times == []
        assert process.stopped and not process.paused

    def test_interval_exposed(self):
        engine = Engine()
        assert PeriodicProcess(engine, 7.5, lambda: None).interval == 7.5


#: Quarter-second steps: every time stays exact in binary floating point,
#: so model and engine clocks compare with ``==``, and ties are common.
_QUARTERS = st.integers(min_value=0, max_value=8)
_PROCESS = st.tuples(st.integers(1, 8), st.none() | _QUARTERS)  # interval, start_delay
_STEP = st.one_of(
    st.tuples(st.just("pause"), st.integers(0, 2)),
    st.tuples(st.just("resume"), st.integers(0, 2), st.none() | _QUARTERS),
    st.tuples(st.just("stop"), st.integers(0, 2)),
    st.tuples(st.just("run"), st.integers(0, 16)),
)


#: A periodic process: interval and start delay in quarters, and an
#: action it performs on every ``every``-th firing (or none).
_ACTION = st.one_of(
    st.tuples(st.sampled_from(["pause", "stop"]), st.integers(0, 3)),
    st.tuples(st.just("resume"), st.integers(0, 3), st.none() | _QUARTERS),
    st.tuples(st.just("once"), _QUARTERS),
    st.tuples(st.just("raise")),
)
_MODEL_PROCESS = st.tuples(
    st.integers(1, 6), st.none() | st.integers(0, 6), st.none() | _ACTION, st.integers(1, 3)
)
_MODEL_STEP = st.one_of(
    st.tuples(st.sampled_from(["pause", "stop"]), st.integers(0, 3)),
    st.tuples(st.just("resume"), st.integers(0, 3), st.none() | _QUARTERS),
    # One-shot events at colliding times, each with an optional action.
    st.tuples(st.just("at"), _QUARTERS, st.integers(1, 3), st.none() | _ACTION),
    st.tuples(st.just("run"), st.integers(0, 16), st.none() | st.integers(0, 6)),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
)


class TestReferenceModel:
    """Periodic processes against a list-based reference model.

    The model keeps each process's next firing as ``(time, seq)``, with
    ``seq`` stamped in the same order the engine stamps its events, and
    fires the smallest due one.  A pause followed by a resume inside one
    interval leaves the cancelled firing in the heap beside the new one:
    an engine that fired it would add to ``events_fired`` and run the
    process's callback once too often.  Fire counts are counted in the
    test's own callbacks.
    """

    @settings(max_examples=300, deadline=None)
    @given(specs=st.lists(_PROCESS, min_size=1, max_size=3), program=st.lists(_STEP, max_size=25))
    def test_processes_match_reference(self, specs, program):
        engine = Engine()
        processes, fired = [], []  # fired: (process index, time), in firing order
        # Model per process: [interval, next (time, seq) or None, mode, fire count].
        model, ref_fired = [], []
        now, seq = 0.0, 0
        for index, (interval, start) in enumerate(specs):
            processes.append(
                PeriodicProcess(
                    engine,
                    interval / 4,
                    lambda index=index: fired.append((index, engine.now)),
                    name=f"p{index}",
                    start_delay=None if start is None else start / 4,
                )
            )
            first = interval if start is None else start
            model.append([interval / 4, (now + first / 4, seq), "running", 0])
            seq += 1
        for op, *args in program:
            if op == "run":
                until = now + args[0] / 4
                while True:
                    due = [(entry[1], i) for i, entry in enumerate(model) if entry[1] is not None]
                    if not due or min(due)[0][0] > until:
                        break
                    (time, _), i = min(due)
                    ref_fired.append((i, time))
                    model[i][1] = (time + model[i][0], seq)
                    model[i][3] += 1
                    seq += 1
                now = until
                engine.run(until=until)
            else:
                index = args[0] % len(model)
                entry, process = model[index], processes[index]
                if op == "pause":
                    process.pause()
                    if entry[2] == "running":
                        entry[1], entry[2] = None, "paused"
                elif op == "resume":
                    delay = entry[0] if args[1] is None else args[1] / 4
                    process.resume(start_delay=None if args[1] is None else delay)
                    if entry[2] == "paused":
                        entry[1], entry[2] = (now + delay, seq), "running"
                        seq += 1
                else:
                    process.stop()
                    entry[1], entry[2] = None, "stopped"
            assert fired == ref_fired
            assert engine.now == now
            for index, (process, (_interval, _next, mode, count)) in enumerate(
                zip(processes, model)
            ):
                assert sum(1 for i, _ in fired if i == index) == count
                assert process.paused == (mode == "paused")
                assert process.stopped == (mode == "stopped")
            assert engine.events_fired == len(ref_fired)
            # Every scheduled firing has fired, or is still stored, or was
            # popped as a tombstone.
            stored = engine.events_pending + engine.cancelled_skipped
            assert seq == engine.events_fired + stored

    @settings(max_examples=400, deadline=None)
    @given(
        specs=st.lists(_MODEL_PROCESS, min_size=1, max_size=4),
        program=st.lists(_MODEL_STEP, max_size=30),
    )
    def test_in_place_rearm_matches_a_fresh_event_per_firing(self, specs, program):
        """The engine's in-place re-arm against the fresh event per firing
        it replaces (:class:`_ListEngine`, :class:`_ListProcess`), through
        one-shot events, actions inside callbacks, raising callbacks,
        ``run(until, max_events)``, ``step()`` and ``peek_time()``."""
        ours = _Side(Engine(), PeriodicProcess, specs, check_events=True)
        model = _Side(_ListEngine(), _ListProcess, specs, check_events=False)
        for op, *args in program:
            outcomes = [side.apply(op, args) for side in (ours, model)]
            assert outcomes[0] == outcomes[1]
            assert ours.log == model.log
            assert ours.observe() == model.observe()


class _Boom(Exception):
    """Raised by a callback whose action is ``raise``."""


class _Side:
    """One engine and its processes, driven by a test program.

    Both sides log every callback as ``("p", index)`` or ``("o", ident)``,
    count each process's callbacks and run the same actions, so equal
    logs mean equal fire order.  With
    ``check_events`` every periodic firing also checks that the process
    still holds the event it was armed with — re-armed in place to
    ``now + interval`` — unless that event was cancelled (by a pause or
    stop) since the previous firing.
    """

    def __init__(self, engine, process_type, specs, check_events):
        self.engine = engine
        self.log = []
        self.processes = []
        self.fired = [0] * len(specs)
        self._once = 0
        self._check_events = check_events
        self._armed = []
        for index, (interval, start, action, every) in enumerate(specs):
            self.processes.append(
                process_type(
                    engine,
                    interval / 4,
                    lambda index=index, action=action, every=every: self._tick(
                        index, action, every
                    ),
                    name=f"p{index}",
                    start_delay=None if start is None else start / 4,
                )
            )
            self._armed.append(None)

    def _tick(self, index, action, every):
        process = self.processes[index]
        self.log.append(("p", index))
        self.fired[index] += 1
        if self._check_events:
            event = process._event
            previous = self._armed[index]
            if previous is not None and not previous.cancelled:
                assert event is previous
            assert event.time == self.engine.now + process.interval
            self._armed[index] = event
        if action is not None and self.fired[index] % every == 0:
            self._act(action)

    def _once_at(self, quarters, action):
        ident = self._once
        self._once += 1

        def callback():
            self.log.append(("o", ident))
            if action is not None:
                self._act(action)

        self.engine.schedule(quarters / 4, callback, name="once")

    def _act(self, action):
        op, *args = action
        if op == "raise":
            raise _Boom()
        if op == "once":
            self._once_at(args[0], None)
            return
        process = self.processes[args[0] % len(self.processes)]
        if op == "pause":
            process.pause()
        elif op == "stop":
            process.stop()
        else:
            process.resume(start_delay=None if args[1] is None else args[1] / 4)

    def apply(self, op, args):
        """Run one program step; returns what it returned, or ``"boom"``."""
        try:
            if op == "run":
                until = self.engine.now + args[0] / 4
                return self.engine.run(until=until, max_events=args[1])
            if op == "step":
                return self.engine.step() is not None
            if op == "peek":
                return self.engine.peek_time()
            if op == "at":
                quarters, copies, action = args
                for _ in range(copies):
                    self._once_at(quarters, action)
                return None
            self._act((op, *args))
            return None
        except _Boom:
            return "boom"

    def observe(self):
        engine = self.engine
        return (
            engine.now,
            engine.events_fired,
            engine.cancelled_skipped,
            engine.events_pending,
            self.fired,
            [(p.paused, p.stopped) for p in self.processes],
        )


class _ListEngine:
    """The engine's contract on a plain list of ``[time, seq, callback,
    cancelled]`` entries: fire the smallest live ``(time, seq)``, drop a
    cancelled entry when it is the smallest one at a head check."""

    def __init__(self):
        self.now = 0.0
        self.events_fired = 0
        self.cancelled_skipped = 0
        self._seq = 0
        self._entries = []

    @property
    def events_pending(self):
        return len(self._entries)

    def schedule(self, delay, callback, name=None):
        entry = [self.now + delay, self._seq, callback, False]
        self._seq += 1
        self._entries.append(entry)
        return entry

    def _head(self):
        while self._entries:
            entry = min(self._entries, key=lambda e: (e[0], e[1]))
            if not entry[3]:
                return entry
            self._entries.remove(entry)
            self.cancelled_skipped += 1
        return None

    def peek_time(self):
        entry = self._head()
        return None if entry is None else entry[0]

    def run(self, until=None, max_events=None):
        fired = 0
        while max_events is None or fired < max_events:
            entry = self._head()
            if entry is None or (until is not None and entry[0] > until):
                break
            self._entries.remove(entry)
            self.now = entry[0]
            self.events_fired += 1
            fired += 1
            entry[2]()
        if until is not None and self.now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until
        return fired

    def step(self):
        entry = self._head()
        if entry is not None:
            self.run(max_events=1)
        return entry


class _ListProcess:
    """A periodic process that schedules a fresh entry for its next
    firing just before it runs its callback."""

    def __init__(self, engine, interval, callback, name, start_delay=None):
        self._engine = engine
        self.interval = interval
        self._callback = callback
        self.paused = False
        self.stopped = False
        first = interval if start_delay is None else start_delay
        self._entry = engine.schedule(first, self._fire)

    def _fire(self):
        if self.stopped or self.paused:
            return
        self._entry = self._engine.schedule(self.interval, self._fire)
        self._callback()

    def _cancel(self):
        if self._entry is not None:
            self._entry[3] = True
            self._entry = None

    def pause(self):
        if self.stopped or self.paused:
            return
        self.paused = True
        self._cancel()

    def resume(self, start_delay=None):
        if self.stopped or not self.paused:
            return
        delay = self.interval if start_delay is None else start_delay
        self._entry = self._engine.schedule(delay, self._fire)
        self.paused = False

    def stop(self):
        self.stopped = True
        self.paused = False
        self._cancel()
