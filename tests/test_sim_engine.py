"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import StateError
from repro.sim.engine import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(20.0, fired.append, "b")
        engine.schedule(10.0, fired.append, "a")
        engine.schedule(30.0, fired.append, "c")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        engine = Engine()
        fired = []
        for tag in range(5):
            engine.schedule(10.0, fired.append, tag)
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(15.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [15.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(StateError):
            Engine().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        seen = []
        engine.schedule_at(12.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [12.0]

    def test_schedule_at_lands_exactly_on_time(self):
        # 8.79 + (106.48 - 8.79) is 106.47999999999999: going through a
        # delay would fire one ulp early
        engine = Engine()
        engine.run_until(8.79)
        handle = engine.schedule_at(106.48, lambda: None)
        assert handle.time == 106.48
        engine.run()
        assert engine.now == 106.48

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.run_until(5.0)
        with pytest.raises(StateError):
            engine.schedule_at(4.9, lambda: None)

    def test_nested_scheduling(self):
        engine = Engine()
        fired = []

        def outer():
            fired.append(("outer", engine.now))
            engine.schedule(5.0, inner)

        def inner():
            fired.append(("inner", engine.now))

        engine.schedule(10.0, outer)
        engine.run()
        assert fired == [("outer", 10.0), ("inner", 15.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(10.0, fired.append, "x")
        engine.cancel(handle)
        engine.run()
        assert fired == []
        assert handle.cancelled

    def test_double_cancel_is_noop(self):
        engine = Engine()
        handle = engine.schedule(10.0, lambda: None)
        engine.cancel(handle)
        engine.cancel(handle)
        assert engine.run() == 0

    def test_pending_excludes_cancelled(self):
        engine = Engine()
        keep = engine.schedule(10.0, lambda: None)
        drop = engine.schedule(20.0, lambda: None)
        engine.cancel(drop)
        assert engine.pending() == 1
        assert keep.time == 10.0


class TestRunUntil:
    def test_stops_at_horizon(self):
        engine = Engine()
        fired = []
        engine.schedule(10.0, fired.append, "in")
        engine.schedule(50.0, fired.append, "out")
        engine.run_until(30.0)
        assert fired == ["in"]
        assert engine.now == 30.0

    def test_horizon_event_inclusive(self):
        engine = Engine()
        fired = []
        engine.schedule(30.0, fired.append, "edge")
        engine.run_until(30.0)
        assert fired == ["edge"]

    def test_now_set_even_when_queue_empty(self):
        engine = Engine()
        engine.run_until(100.0)
        assert engine.now == 100.0

    def test_past_horizon_rejected(self):
        engine = Engine()
        engine.run_until(10.0)
        with pytest.raises(StateError):
            engine.run_until(5.0)

    def test_runaway_loop_detected(self):
        engine = Engine()

        def respawn():
            engine.schedule(0.0, respawn)

        engine.schedule(0.0, respawn)
        with pytest.raises(StateError):
            engine.run(max_events=100)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30))
    def test_arbitrary_delays_fire_sorted(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.schedule(delay, lambda d=delay: fired.append(d))
        engine.run()
        assert fired == sorted(fired)


class TestQueueAccounting:
    def test_pending_count_excludes_cancelled(self):
        engine = Engine()
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert engine.pending_count == 10
        for handle in handles[:4]:
            engine.cancel(handle)
        assert engine.pending_count == 6
        assert engine.pending() == 6

    def test_double_cancel_counts_once(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.cancel(handle)
        engine.cancel(handle)
        assert engine.pending_count == 1

    def test_cancel_after_fire_does_not_corrupt_count(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run_until(1.0)
        engine.cancel(handle)  # late cancel of an already-fired event
        assert engine.pending_count == 1
        engine.run()
        assert engine.pending_count == 0

    def test_events_fired_counts_only_executed(self):
        engine = Engine()
        keep = [engine.schedule(float(i + 1), lambda: None) for i in range(5)]
        victim = engine.schedule(6.0, lambda: None)
        engine.cancel(victim)
        engine.run()
        assert engine.events_fired == 5
        assert keep[0].time == 1.0

    def test_heap_compaction_under_cancel_heavy_load(self):
        engine = Engine()
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(100)]
        for handle in handles[:60]:
            engine.cancel(handle)
        # once cancelled entries outnumbered live ones the heap was
        # physically compacted, so most dead entries are gone (cancels
        # arriving after the rebuild stay lazy until the next trigger)
        assert len(engine._queue) < 60
        assert engine.pending_count == 40
        fired = engine.run()
        assert fired == 40

    def test_small_queues_skip_compaction(self):
        engine = Engine()
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles[:8]:
            engine.cancel(handle)
        # below the compaction floor the dead entries stay (lazy skip)
        assert len(engine._queue) == 10
        assert engine.pending_count == 2
        assert engine.run() == 2

    def test_cancelled_events_never_fire_after_compaction(self):
        engine = Engine()
        fired = []
        victims = [
            engine.schedule(float(i + 1), fired.append, i) for i in range(80)
        ]
        survivors = [
            engine.schedule(float(100 + i), fired.append, 100 + i)
            for i in range(20)
        ]
        for handle in victims:
            engine.cancel(handle)
        engine.run()
        assert fired == [100 + i for i in range(20)]
        assert all(handle.cancelled for handle in victims)
        assert not any(handle.cancelled for handle in survivors)


class TestFlattenedLoopEdgeCases:
    """Edge cases for the flattened run loops and in-place compaction."""

    def test_compact_during_run_keeps_loop_alias_valid(self):
        # the run loop holds a local alias to the queue list; a callback
        # that cancels enough events to trigger _compact must not strand
        # the loop on a stale list object
        engine = Engine()
        fired = []
        victims = [
            engine.schedule(50.0 + i, fired.append, i) for i in range(128)
        ]
        survivors = [200.0 + i for i in range(4)]
        for t in survivors:
            engine.schedule(t, fired.append, t)

        def mass_cancel():
            for handle in victims:
                engine.cancel(handle)
            # compaction ran at least once mid-run (queues below 64
            # entries intentionally skip it)
            assert len(engine._queue) < len(victims)

        engine.schedule(1.0, mass_cancel)
        engine.run()
        assert fired == survivors
        assert engine.pending_count == 0

    def test_compact_during_run_until_keeps_loop_alias_valid(self):
        engine = Engine()
        fired = []
        victims = [
            engine.schedule(50.0 + i, fired.append, i) for i in range(128)
        ]
        engine.schedule(1.0, lambda: [engine.cancel(h) for h in victims])
        engine.schedule(300.0, fired.append, "late")
        engine.run_until(200.0)
        assert fired == []
        assert engine.pending_count == 1
        engine.run_until(300.0)
        assert fired == ["late"]

    def test_schedule_at_ties_fire_in_schedule_order(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, fired.append, "delay-first")
        engine.schedule_at(5.0, fired.append, "absolute-second")
        engine.schedule(5.0, fired.append, "delay-third")
        engine.run()
        assert fired == ["delay-first", "absolute-second", "delay-third"]

    def test_run_max_events_exact_exhaustion(self):
        # exactly max_events in the queue: the guard must not trip when
        # the budget is spent on the final event
        engine = Engine()
        fired = []
        for i in range(10):
            engine.schedule(float(i), fired.append, i)
        with pytest.raises(StateError):
            engine.run(max_events=10)
        assert fired == list(range(10))

        engine2 = Engine()
        for i in range(9):
            engine2.schedule(float(i), fired.append, i)
        assert engine2.run(max_events=10) == 9

    def test_pending_count_under_interleaved_cancel_and_fire(self):
        engine = Engine()
        observed = []
        handles = {}

        def fire_and_cancel(i):
            # cancel the event two slots ahead, then record the count
            target = handles.get(i + 2)
            if target is not None:
                engine.cancel(target)
            observed.append(engine.pending_count)

        for i in range(10):
            handles[i] = engine.schedule(float(i), fire_and_cancel, i)
        engine.run()
        # events 0..9 scheduled; each firing cancels i+2, so events fire
        # at i = 0, 1, 4, 5, 8, 9 and the count never goes negative
        assert observed[-1] == 0
        assert all(count >= 0 for count in observed)
        fired_indices = [i for i in range(10) if i not in (2, 3, 6, 7)]
        assert len(observed) == len(fired_indices)

    def test_step_interleaved_with_cancel_keeps_accounting(self):
        engine = Engine()
        fired = []
        handles = [engine.schedule(float(i), fired.append, i) for i in range(6)]
        assert engine.step()
        engine.cancel(handles[1])
        engine.cancel(handles[2])
        assert engine.pending_count == 3
        assert engine.step()  # skips 1 and 2, fires 3
        assert fired == [0, 3]
        assert engine.pending_count == 2
        while engine.step():
            pass
        assert fired == [0, 3, 4, 5]
        assert engine.pending_count == 0
