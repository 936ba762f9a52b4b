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
        process = PeriodicProcess(engine, 10.0, lambda: None)
        engine.run(until=15.0)
        process.stop()
        engine.run(until=100.0)
        assert process.fired == 1
        assert process.stopped

    def test_stop_from_inside_callback(self):
        engine = Engine()
        holder = {}

        def callback():
            holder["process"].stop()

        holder["process"] = PeriodicProcess(engine, 10.0, callback)
        engine.run(until=100.0)
        assert holder["process"].fired == 1

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
        process = PeriodicProcess(engine, 10.0, lambda: None)
        process.pause()
        with pytest.raises(SimulationError):
            process.resume(start_delay=start_delay)
        assert process.paused
        process.resume(start_delay=1.0)
        engine.run(until=5.0)
        assert process.fired == 1

    def test_pause_stops_firing_and_schedules_nothing(self):
        engine = Engine()
        process = PeriodicProcess(engine, 10.0, lambda: None)
        engine.run(until=15.0)
        assert process.fired == 1
        process.pause()
        assert process.paused
        engine.run(until=500.0)
        # Not merely "the callback early-returns": the event heap is
        # empty, so a paused process costs zero events.
        assert process.fired == 1
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
        process = PeriodicProcess(engine, 10.0, lambda: None)
        process.pause()
        process.pause()  # no-op
        process.resume()
        process.resume()  # no-op
        process.stop()
        process.pause()  # no-op once stopped
        process.resume()  # must not revive a stopped process
        engine.run(until=100.0)
        assert process.fired == 0
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


class TestReferenceModel:
    """Periodic processes against a list-based reference model.

    The model keeps each process's next firing as ``(time, seq)``, with
    ``seq`` stamped in the same order the engine stamps its events, and
    fires the smallest due one.  A pause followed by a resume inside one
    interval leaves the cancelled firing in the heap beside the new one:
    an engine that fired it would add to ``events_fired`` (and to no
    process's count, since its callback is dropped).
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
            for process, (_interval, _next, mode, count) in zip(processes, model):
                assert process.fired == count
                assert process.paused == (mode == "paused")
                assert process.stopped == (mode == "stopped")
            assert engine.events_fired == len(ref_fired)
            # Every scheduled firing has fired, or is still stored, or was
            # popped as a tombstone.
            stored = engine.events_pending + engine.cancelled_skipped
            assert seq == engine.events_fired + stored
