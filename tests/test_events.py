"""Unit tests for the discrete-event kernel."""

import os
import subprocess
import sys

import pytest

from repro.events import EventLoop, SimulationError, Timer


class TestEventLoop:
    def test_starts_at_time_zero(self):
        loop = EventLoop()
        assert loop.now == 0.0

    def test_runs_events_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.call_later(5.0, fired.append, "late")
        loop.call_later(1.0, fired.append, "early")
        loop.call_later(3.0, fired.append, "middle")
        loop.run()
        assert fired == ["early", "middle", "late"]

    def test_simultaneous_events_fire_fifo(self):
        loop = EventLoop()
        fired = []
        for label in ("a", "b", "c"):
            loop.call_later(2.0, fired.append, label)
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        loop = EventLoop()
        seen = []
        loop.call_later(7.5, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [7.5]
        assert loop.now == 7.5

    def test_nested_scheduling(self):
        loop = EventLoop()
        fired = []

        def outer():
            fired.append(("outer", loop.now))
            loop.call_later(2.0, inner)

        def inner():
            fired.append(("inner", loop.now))

        loop.call_later(1.0, outer)
        loop.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.call_later(-1.0, lambda: None)

    def test_call_at_in_past_rejected(self):
        loop = EventLoop()
        loop.call_later(10.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.call_at(5.0, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        fired = []
        event = loop.call_later(1.0, fired.append, "x")
        event.cancel()
        loop.run()
        assert fired == []

    def test_run_until_time_bound(self):
        loop = EventLoop()
        fired = []
        loop.call_later(1.0, fired.append, "a")
        loop.call_later(10.0, fired.append, "b")
        loop.run(until_ms=5.0)
        assert fired == ["a"]
        assert loop.now == 5.0
        loop.run()
        assert fired == ["a", "b"]

    def test_run_until_predicate(self):
        loop = EventLoop()
        fired = []
        for i in range(5):
            loop.call_later(float(i + 1), fired.append, i)
        loop.run_until(lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]

    def test_max_events_guard(self):
        loop = EventLoop()

        def reschedule():
            loop.call_later(1.0, reschedule)

        loop.call_later(1.0, reschedule)
        with pytest.raises(SimulationError):
            loop.run(max_events=100)

    def test_max_events_bound_is_exact(self):
        """The guard fires after *exactly* max_events executions (it
        used to allow one extra event through)."""
        loop = EventLoop()

        def reschedule():
            loop.call_later(1.0, reschedule)

        loop.call_later(1.0, reschedule)
        with pytest.raises(SimulationError):
            loop.run(max_events=100)
        assert loop.processed_events == 100

    def test_max_events_allows_exactly_that_many(self):
        loop = EventLoop()
        fired = []
        for i in range(5):
            loop.call_later(float(i + 1), fired.append, i)
        loop.run(max_events=5)  # must not raise: exactly 5 events queued
        assert fired == [0, 1, 2, 3, 4]

    def test_run_until_max_events_bound_is_exact(self):
        loop = EventLoop()

        def reschedule():
            loop.call_later(1.0, reschedule)

        loop.call_later(1.0, reschedule)
        with pytest.raises(SimulationError):
            loop.run_until(lambda: False, max_events=50)
        assert loop.processed_events == 50

    def test_len_excludes_cancelled(self):
        loop = EventLoop()
        keep = loop.call_later(1.0, lambda: None)
        drop = loop.call_later(2.0, lambda: None)
        drop.cancel()
        assert len(loop) == 1
        assert keep is not None

    def test_len_tracks_push_cancel_and_pop(self):
        loop = EventLoop()
        events = [loop.call_later(float(i + 1), lambda: None) for i in range(4)]
        assert len(loop) == 4
        events[1].cancel()
        events[1].cancel()  # double-cancel must not double-decrement
        assert len(loop) == 3
        loop.step()
        assert len(loop) == 2
        loop.run()
        assert len(loop) == 0
        events[0].cancel()  # cancelling an executed event is a no-op
        assert len(loop) == 0

    def test_processed_events_counter(self):
        loop = EventLoop()
        for i in range(4):
            loop.call_later(float(i), lambda: None)
        loop.run()
        assert loop.processed_events == 4


class TestTimer:
    def test_fires_after_delay(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.start(5.0)
        loop.run()
        assert fired == [5.0]

    def test_stop_prevents_firing(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.start(5.0)
        timer.stop()
        loop.run()
        assert fired == []

    def test_restart_replaces_deadline(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.start(5.0)
        timer.start(9.0)
        loop.run()
        assert fired == [9.0]

    def test_armed_reflects_state(self):
        loop = EventLoop()
        timer = Timer(loop, lambda: None)
        assert not timer.armed
        timer.start(1.0)
        assert timer.armed
        loop.run()
        assert not timer.armed


# ---------------------------------------------------------------------
# Differential edge cases: every scheduler implementation must agree.
# ---------------------------------------------------------------------

from repro.events.loop import CEventLoop, HeapEventLoop

ALL_LOOPS = [
    pytest.param(HeapEventLoop, id="heap"),
    pytest.param(
        CEventLoop,
        id="c",
        marks=pytest.mark.skipif(
            CEventLoop is None, reason="C kernel not built on this host"
        ),
    ),
]


@pytest.mark.parametrize("loop_cls", ALL_LOOPS)
class TestSchedulerEdgeCases:
    def test_cancel_before_fire(self, loop_cls):
        loop = loop_cls()
        fired = []
        keep = loop.call_later(5.0, fired.append, "keep")
        drop = loop.call_later(3.0, fired.append, "drop")
        drop.cancel()
        loop.run()
        assert fired == ["keep"]
        assert keep.cancelled is False

    def test_cancel_from_earlier_callback(self, loop_cls):
        # A callback cancelling a later-scheduled event must win even
        # when both sit in the same drained bucket.
        loop = loop_cls()
        fired = []
        victim = loop.call_later(5.0, fired.append, "victim")
        loop.call_later(5.0, lambda: (fired.append("killer"), victim.cancel()))
        loop.run()
        # victim was pushed first, so it fires before the killer runs.
        assert fired == ["victim", "killer"]

        loop = loop_cls()
        fired = []
        loop.call_later(4.0, lambda: victim2.cancel())
        victim2 = loop.call_later(5.0, fired.append, "victim")
        loop.run()
        assert fired == []

    def test_double_cancel_is_harmless(self, loop_cls):
        loop = loop_cls()
        event = loop.call_later(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(loop) == 0
        loop.run()
        assert loop.processed_events == 0

    def test_same_timestamp_fifo_stability(self, loop_cls):
        # 200 events at one instant, pushed in order, must fire in
        # order — across bucket drains, heap sifts and the C heap.
        loop = loop_cls()
        fired = []
        for i in range(200):
            loop.call_later(2.0, fired.append, i)
        loop.run()
        assert fired == list(range(200))

    def test_same_timestamp_fifo_across_mixed_pushes(self, loop_cls):
        # Interleave same-time pushes with earlier/later ones so the
        # tie-broken batch is assembled from non-contiguous pushes.
        loop = loop_cls()
        fired = []
        loop.call_later(9.0, fired.append, "tail")
        first = [loop.call_later(5.0, fired.append, f"a{i}") for i in range(3)]
        loop.call_later(1.0, fired.append, "head")
        [loop.call_later(5.0, fired.append, f"b{i}") for i in range(3)]
        first[1].cancel()
        loop.run()
        assert fired == ["head", "a0", "a2", "b0", "b1", "b2", "tail"]

    def test_reentrant_scheduling_during_pop(self, loop_cls):
        # A callback scheduling at the *current* instant: the new event
        # must run in this same pass, after already-queued peers.
        loop = loop_cls()
        fired = []

        def reenter():
            fired.append("reenter")
            loop.call_at(loop.now, fired.append, "nested")

        loop.call_later(3.0, reenter)
        loop.call_later(3.0, fired.append, "peer")
        loop.run()
        assert fired == ["reenter", "peer", "nested"]
        assert loop.now == 3.0

    def test_reentrant_chain_does_not_stall_clock(self, loop_cls):
        # A zero-delay chain during a drain keeps FIFO order and the
        # clock pinned; a finite chain must terminate.
        loop = loop_cls()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 50:
                loop.call_later(0.0, chain, depth + 1)

        loop.call_later(1.0, chain, 0)
        loop.run()
        assert fired == list(range(51))
        assert loop.now == 1.0

    def test_max_events_exactness(self, loop_cls):
        loop = loop_cls()
        for i in range(10):
            loop.call_later(float(i), lambda: None)
        with pytest.raises(SimulationError):
            loop.run(max_events=4)
        assert loop.processed_events == 4
        # The remaining events are intact and still runnable.
        loop.run()
        assert loop.processed_events == 10

    def test_max_events_not_consumed_by_cancelled(self, loop_cls):
        # Cancelled entries are skipped silently: they must not eat
        # into the max_events budget.
        loop = loop_cls()
        for i in range(6):
            event = loop.call_later(float(i), lambda: None)
            if i % 2 == 0:
                event.cancel()
        loop.run(max_events=3)
        assert loop.processed_events == 3

    def test_run_until_ms_stops_clock_at_bound(self, loop_cls):
        loop = loop_cls()
        fired = []
        loop.call_later(2.0, fired.append, "in")
        loop.call_later(7.0, fired.append, "out")
        loop.run(until_ms=5.0)
        assert fired == ["in"]
        assert loop.now == 5.0
        loop.run()
        assert fired == ["in", "out"]

    def test_next_event_time_tracks_head(self, loop_cls):
        loop = loop_cls()
        assert loop.next_event_time() is None
        loop.call_later(5.0, lambda: None)
        head = loop.call_later(2.0, lambda: None)
        assert loop.next_event_time() == 2.0
        head.cancel()
        assert loop.next_event_time() == 5.0
        loop.run()
        assert loop.next_event_time() is None

    def test_next_event_time_does_not_fire_or_advance(self, loop_cls):
        loop = loop_cls()
        fired = []
        loop.call_later(3.0, fired.append, "x")
        assert loop.next_event_time() == 3.0
        assert fired == []
        assert loop.now == 0.0
        assert len(loop) == 1

    def test_far_future_and_near_interleave(self, loop_cls):
        # Far-future deadlines must still interleave correctly with
        # near-term events scheduled later.
        loop = loop_cls()
        fired = []
        loop.call_later(5000.0, fired.append, "far")
        loop.call_later(1.0, fired.append, "near")
        loop.call_later(2000.0, lambda: loop.call_later(0.5, fired.append, "mid"))
        loop.run()
        assert fired == ["near", "mid", "far"]
        assert loop.now == 5000.0


# ---------------------------------------------------------------------
# Scheduler selection via REPRO_EVENT_LOOP.
# ---------------------------------------------------------------------


def _selected_loop(value):
    """Import ``repro.events`` in a fresh interpreter with the knob set."""
    env = dict(os.environ, REPRO_EVENT_LOOP=value)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c",
         "from repro.events import EventLoop; print(EventLoop.__name__)"],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestEventLoopSelection:
    def test_heap_is_selectable(self):
        proc = _selected_loop("heap")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "HeapEventLoop"

    @pytest.mark.parametrize("value", ["calendar", "python", "bogus"])
    def test_unknown_value_raises_at_import(self, value):
        proc = _selected_loop(value)
        assert proc.returncode != 0
        assert f"REPRO_EVENT_LOOP={value!r}" in proc.stderr
        assert "'c' and 'heap'" in proc.stderr
