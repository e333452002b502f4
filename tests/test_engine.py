"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Event, PeriodicTask, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.3, fired.append, "c")
        sim.schedule(0.1, fired.append, "a")
        sim.schedule(0.2, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(0.5, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.25]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.run()
        event_times = []
        sim.schedule_at(0.5, lambda: event_times.append(sim.now))
        sim.run()
        assert event_times == [0.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_times_rejected(self):
        # NaN compares false both ways: unguarded, events at 1.0, nan,
        # 0.5, 2.0 fired as [0.5, 1.0, nan, 2.0] and left the clock at NaN.
        nan = float("nan")
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_fire_at(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_fire(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=nan)
        fired = []
        for t in (1.0, 0.5, 2.0):
            sim.schedule_at(t, fired.append, t)
        sim.run()
        assert fired == [0.5, 1.0, 2.0]
        assert sim.now == 2.0

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(0.1, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == pytest.approx(0.3)


class TestRunUntil:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, fired.append, "early")
        sim.schedule(0.9, fired.append, "late")
        sim.run(until=0.5)
        assert fired == ["early"]
        assert sim.now == 0.5

    def test_later_events_survive_for_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.9, fired.append, "late")
        sim.run(until=0.5)
        sim.run(until=1.0)
        assert fired == ["late"]

    def test_clock_advances_to_until_even_when_empty(self):
        sim = Simulator()
        sim.run(until=2.0)
        assert sim.now == 2.0

    def test_max_events_caps_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(0.1 * (i + 1), fired.append, i)
        processed = sim.run(max_events=4)
        assert processed == 4
        assert fired == [0, 1, 2, 3]

    def test_run_returns_processed_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(0.1, lambda: None)
        assert sim.run() == 5

    def test_max_events_does_not_advance_clock_to_until(self):
        # Regression: run(until=..., max_events=...) used to jump the clock
        # to `until` even when the cap fired mid-calendar, so the next
        # run() would refuse to schedule "in the past".
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(0.1 * (i + 1), fired.append, i)
        processed = sim.run(until=1.0, max_events=4)
        assert processed == 4
        assert sim.now == pytest.approx(0.4)
        # The remaining events are still runnable from where we stopped.
        sim.run(until=1.0)
        assert fired == list(range(10))
        assert sim.now == 1.0

    def test_until_still_advances_clock_when_cap_not_hit(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.run(until=2.0, max_events=5)
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(0.1, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(0.1, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancelled_events_not_counted_pending(self):
        sim = Simulator()
        e1 = sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        e1.cancel()
        assert sim.pending_events() == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        e1 = sim.schedule(0.1, lambda: None)
        sim.schedule(0.7, lambda: None)
        e1.cancel()
        assert sim.peek_time() == pytest.approx(0.7)

    def test_peek_time_empty_calendar(self):
        assert Simulator().peek_time() is None


class TestHeapCompaction:
    def test_mass_cancellation_compacts_calendar(self):
        sim = Simulator()
        events = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        # >50% tombstones on a >=64-slot heap triggers an in-place rebuild;
        # afterwards tombstones may accumulate again but never outnumber
        # the live events.
        assert sim.compactions >= 1
        assert sim.pending_events() == 50
        tombstones = sim.calendar_size() - sim.pending_events()
        assert tombstones <= sim.pending_events()

    def test_small_calendars_are_not_compacted(self):
        sim = Simulator()
        events = [sim.schedule(0.1, lambda: None) for i in range(20)]
        for event in events:
            event.cancel()
        assert sim.compactions == 0

    def test_order_preserved_across_compaction(self):
        sim = Simulator()
        fired = []
        keep = []
        cancel = []
        for i in range(300):
            event = sim.schedule(0.001 * (i + 1), fired.append, i)
            (cancel if i % 3 else keep).append((i, event))
        for _, event in cancel:
            event.cancel()
        assert sim.compactions >= 1
        sim.run()
        assert fired == [i for i, _ in keep]

    def test_compaction_during_run_is_safe(self):
        sim = Simulator()
        fired = []
        victims = []

        def cancel_most():
            for event in victims:
                event.cancel()

        sim.schedule(0.01, cancel_most)
        for i in range(200):
            victims.append(sim.schedule(1.0 + 0.01 * i, fired.append, i))
        survivor = sim.schedule(5.0, fired.append, "end")
        del survivor
        sim.run()
        assert fired == ["end"]


class TestScheduleFire:
    def test_fire_and_forget_executes(self):
        sim = Simulator()
        fired = []
        sim.schedule_fire(0.2, fired.append, "b")
        sim.schedule_fire(0.1, fired.append, "a")
        sim.run()
        assert fired == ["a", "b"]

    def test_fire_chain_builds_no_event_objects(self, monkeypatch):
        # Fire-and-forget entries are bare calendar tuples: a long chain
        # must not construct a single Event handle.
        built = [0]
        init = Event.__init__

        def counting_init(self, *args):
            built[0] += 1
            init(self, *args)

        monkeypatch.setattr(Event, "__init__", counting_init)
        sim = Simulator()
        count = [0]

        def chain():
            count[0] += 1
            if count[0] < 100:
                sim.schedule_fire(0.01, chain)

        sim.schedule_fire(0.01, chain)
        sim.run()
        assert count[0] == 100
        assert built[0] == 0
        sim.schedule(0.01, chain)
        assert built[0] == 1  # the counter does see handle events

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_fire(-0.1, lambda: None)

    def test_interleaves_deterministically_with_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, fired.append, "handle")
        sim.schedule_fire(0.1, fired.append, "fire")
        sim.run()
        assert fired == ["handle", "fire"]


class TestPeriodicTask:
    def test_fires_every_interval(self):
        sim = Simulator()
        ticks = []
        PeriodicTask(sim, 0.1, lambda: ticks.append(sim.now))
        sim.run(until=0.35)
        assert ticks == [pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.3)]

    def test_stop_prevents_future_fires(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 0.1, lambda: ticks.append(sim.now))
        sim.run(until=0.15)
        task.stop()
        sim.run(until=1.0)
        assert len(ticks) == 1

    def test_stop_from_inside_callback(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.stop()

        task = PeriodicTask(sim, 0.1, tick)
        sim.run(until=1.0)
        assert len(ticks) == 2

    def test_custom_start_delay(self):
        sim = Simulator()
        ticks = []
        PeriodicTask(sim, 0.1, lambda: ticks.append(sim.now), start_delay=0.0)
        sim.run(until=0.25)
        assert ticks[0] == pytest.approx(0.0)

    def test_non_positive_interval_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTask(Simulator(), 0.0, lambda: None)

    def test_run_not_reentrant(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(0.1, nested)
        sim.run()
