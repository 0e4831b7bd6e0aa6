"""Discrete-event kernel tests."""

import pytest

from repro.sim.engine import EventLoop


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(3.0, lambda: fired.append("c"))
    loop.schedule(1.0, lambda: fired.append("a"))
    loop.schedule(2.0, lambda: fired.append("b"))
    loop.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append(1))
    loop.schedule(1.0, lambda: fired.append(2))
    loop.run()
    assert fired == [1, 2]


def test_now_advances_to_event_time():
    loop = EventLoop()
    seen = []
    loop.schedule(5.0, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [5.0]
    assert loop.now == 5.0


def test_cannot_schedule_in_past():
    with pytest.raises(ValueError):
        EventLoop().schedule(-1.0, lambda: None)


def test_run_until_stops_at_boundary():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append(1))
    loop.schedule(10.0, lambda: fired.append(2))
    ran = loop.run(until=5.0)
    assert ran == 1 and fired == [1]
    assert loop.now == 5.0
    loop.run()
    assert fired == [1, 2]


def test_max_events_bound():
    loop = EventLoop()
    for i in range(10):
        loop.schedule(float(i), lambda: None)
    assert loop.run(max_events=4) == 4
    assert loop.pending == 6


def test_events_may_schedule_more_events():
    loop = EventLoop()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            loop.schedule(1.0, lambda: chain(depth + 1))

    loop.schedule(0.0, lambda: chain(0))
    loop.run()
    assert fired == [0, 1, 2, 3]
    assert loop.now == 3.0


def test_schedule_at_absolute_time():
    loop = EventLoop()
    seen = []
    loop.schedule_at(7.5, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [7.5]


def test_negative_delay_message_names_now():
    loop = EventLoop()
    loop.schedule(2.0, lambda: None)
    loop.run()
    with pytest.raises(ValueError, match="negative delay"):
        loop.schedule(-0.5, lambda: None)


def test_schedule_at_past_raises():
    loop = EventLoop()
    loop.schedule(5.0, lambda: None)
    loop.run()
    assert loop.now == 5.0
    with pytest.raises(ValueError, match="before now"):
        loop.schedule_at(4.9, lambda: None)
    # Scheduling exactly at `now` is allowed (fires immediately on run).
    fired = []
    loop.schedule_at(5.0, lambda: fired.append(loop.now))
    loop.run()
    assert fired == [5.0]


def test_run_until_and_max_events_interact():
    loop = EventLoop()
    fired = []
    for i in range(10):
        loop.schedule(float(i), lambda i=i: fired.append(i))
    # max_events binds first: only 2 of the 5 events before t=4.5 run.
    assert loop.run(until=4.5, max_events=2) == 2
    assert fired == [0, 1]
    assert loop.now == 1.0  # stopped by the event bound, not the clock
    # until binds next: events at t=2,3,4 run, clock parks at the boundary.
    assert loop.run(until=4.5, max_events=100) == 3
    assert fired == [0, 1, 2, 3, 4]
    assert loop.now == 4.5
    assert loop.pending == 5


class TestOnEventObserver:
    def test_observer_sees_live_events_before_callbacks(self):
        seen = []
        loop = EventLoop()
        loop.on_event = lambda ev: seen.append((loop.now, ev.seq))
        fired = []
        loop.schedule(1.0, lambda: fired.append("a"))
        loop.schedule(2.0, lambda: fired.append("b"))
        loop.run()
        assert fired == ["a", "b"]
        # Observer fires once per event, after now advances.
        assert seen == [(1.0, 0), (2.0, 1)]


class TestClockNeverRewinds:
    """``run(until=t)`` with ``t`` in the past must clamp, not rewind:
    the past-scheduling guards assume ``now`` is monotone."""

    def test_run_until_in_the_past_keeps_now(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda: None)
        loop.schedule(15.0, lambda: None)
        assert loop.run(until=10.0) == 1
        assert loop.now == 10.0
        # The regression: this used to set now back to 3.0, after which
        # schedule_at(5.0, ...) would "re-open" the already-elapsed past.
        assert loop.run(until=3.0) == 0
        assert loop.now == 10.0
        loop.schedule_at(12.0, lambda: None)  # must not raise

    def test_run_until_now_is_a_no_op(self):
        loop = EventLoop()
        loop.schedule(2.0, lambda: None)
        loop.run()
        assert loop.now == 2.0
        assert loop.run(until=2.0) == 0
        assert loop.now == 2.0


class TestClockMonotoneProperty:
    """Property: ``now`` is non-decreasing under arbitrary interleavings
    of schedule / schedule_at / run(until=...) / step."""

    def test_monotone_under_arbitrary_interleavings(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        op = st.tuples(
            st.sampled_from(("schedule", "schedule_at",
                             "run_until", "run_all", "step")),
            st.floats(min_value=0.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False))

        @hypothesis.given(st.lists(op, max_size=60))
        @hypothesis.settings(max_examples=200, deadline=None)
        def check(ops):
            loop = EventLoop()
            floor = loop.now
            for name, x in ops:
                if name == "schedule":
                    loop.schedule(x, lambda: None)
                elif name == "schedule_at":
                    loop.schedule_at(loop.now + x, lambda: None)
                elif name == "run_until":
                    # x is absolute and may lie before now — the
                    # rewind-prone case this property exists to pin.
                    loop.run(until=x)
                elif name == "run_all":
                    loop.run(max_events=int(x))
                elif name == "step":
                    loop.step()
                assert loop.now >= floor, (name, x, loop.now, floor)
                floor = loop.now

        check()
