"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 10)
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run()
    assert fired == [1, 10]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, event.cancel)
    sim.run()
    assert fired == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_scheduling_in_past_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(1.0, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_step_returns_false_when_drained():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_rng_reproducibility():
    values_a = Simulator(seed=42).rng.random()
    values_b = Simulator(seed=42).rng.random()
    assert values_a == values_b


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.schedule(0.0, marker.append, sim.now))
    marker = []
    sim.run()
    assert marker == [1.0]


# ---------------------------------------------------------------------
# stop(): end the current run after the running callback
# ---------------------------------------------------------------------
def test_stop_finishes_the_callback_and_skips_same_instant_entries():
    sim = Simulator()
    fired = []

    def stopping():
        sim.stop()
        fired.append("stopper")
        sim.schedule(0.0, fired.append, "scheduled after stop")

    sim.at(1.0, fired.append, "before")
    sim.at(2.0, stopping)
    sim.at(2.0, fired.append, "same instant")
    sim.at(3.0, fired.append, "later")
    assert sim.run(until=10.0) == 2
    assert fired == ["before", "stopper"]
    assert sim.now == 2.0  # not advanced to the horizon
    assert sim.events_processed == 2  # the stopping event counts
    assert sim.pending_events == 3


def test_run_after_stop_resumes_without_stopping_again():
    sim = Simulator()
    fired = []
    sim.at(1.0, sim.stop)
    for t in (1.0, 2.0, 3.0):
        sim.at(t, fired.append, t)
    sim.run(until=10.0)
    assert fired == [] and sim.now == 1.0
    assert sim.run(until=10.0) == 3  # the stop does not leak
    assert fired == [1.0, 2.0, 3.0]
    assert sim.now == 10.0
    assert sim.events_processed == 4


def test_stop_outside_a_run_does_not_end_the_next_one():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, 1)
    sim.at(2.0, fired.append, 2)
    sim.stop()
    sim.run()
    assert fired == [1, 2]


# ---------------------------------------------------------------------
# Cancelling an event that has already fired
# ---------------------------------------------------------------------
def test_cancelling_a_fired_event_leaves_counts_alone():
    sim = Simulator()
    event = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    sim.run(until=1.5)
    event.cancel()
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0
    assert sim._cancelled == 0


def test_cancel_at_the_current_instant_counts_only_pending_events():
    sim = Simulator()
    fired = []

    def cancel_both():
        first.cancel()  # the event running now: already fired
        second.cancel()  # due now, still in the calendar

    first = sim.at(1.0, cancel_both)
    second = sim.at(1.0, fired.append, "second")
    sim.at(1.0, fired.append, "third")
    sim.run(max_events=1)
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["third"]
    assert sim.pending_events == 0
    assert sim._cancelled == 0


# ---------------------------------------------------------------------
# Timer: one calendar entry, fired in the eager (time, seq) order
# ---------------------------------------------------------------------
def make_timer(sim, order, tag="timer"):
    return sim.timer(lambda: order.append((tag, sim.now)))


def test_timer_fires_once_at_its_deadline():
    sim = Simulator()
    order = []
    timer = make_timer(sim, order)
    assert timer.deadline is None
    timer.set(1.0)
    assert timer.deadline == 1.0
    sim.run()
    assert order == [("timer", 1.0)]
    assert timer.deadline is None
    assert sim.events_processed == 1


def test_timer_later_set_keeps_the_pending_entry():
    sim = Simulator()
    order = []
    timer = make_timer(sim, order)
    timer.set(1.0)
    heap_sizes = []

    def push_back():
        timer.set(2.0)
        heap_sizes.append(len(sim._heap))

    sim.at(0.5, push_back)
    sim.run()
    assert heap_sizes == [1]  # still the entry at 1.0, not a second
    assert order == [("timer", 2.0)]
    # push_back, the early pop at 1.0 (re-entered), the expiry
    assert sim.events_processed == 3
    assert sim._cancelled == 0


def test_timer_earlier_set_reschedules():
    sim = Simulator()
    order = []
    timer = make_timer(sim, order)
    timer.set(2.0)
    sim.at(0.5, timer.set, 1.0)
    sim.run()
    assert order == [("timer", 1.0)]
    assert sim.events_processed == 2  # the entry at 2.0 never pops
    assert sim.pending_events == 0


def test_timer_clear_drops_the_entry_and_set_rearms():
    sim = Simulator()
    order = []
    timer = make_timer(sim, order)
    timer.set(1.0)
    sim.at(0.5, timer.clear)
    sim.run()
    assert order == []
    assert timer.deadline is None

    timer.set(3.0)
    sim.at(2.5, timer.clear)
    sim.at(2.5, timer.set, 4.0)
    sim.run()
    assert order == [("timer", 4.0)]


def test_timer_draws_one_key_per_set():
    """Each set takes the key an eager reschedule would take, so the
    events scheduled after it get the same keys either way."""
    sim = Simulator()
    timer = sim.timer(lambda: None)
    timer.set(1.0)
    timer.set(2.0)
    timer.clear()
    timer.set(3.0)
    assert sim.at(5.0, lambda: None).seq == 3


def test_timer_tie_with_a_same_time_event_keeps_the_set_order():
    sim = Simulator()
    order = []
    timer = make_timer(sim, order)
    timer.set(0.5)
    sim.at(1.0, order.append, ("a", 1.0))
    timer.set(1.0)  # lazily: the entry at 0.5 stays
    sim.at(1.0, order.append, ("c", 1.0))
    sim.run()
    # The entry pops at 0.5 and re-enters at 1.0 under the key of the
    # second set: between "a" and "c", as a rescheduled event would be.
    assert order == [("a", 1.0), ("timer", 1.0), ("c", 1.0)]


def test_timer_reset_at_the_same_instant_moves_behind_later_events():
    for clear_first in (False, True):
        sim = Simulator()
        order = []
        timer = make_timer(sim, order)
        timer.set(1.0)
        sim.at(1.0, order.append, ("b", 1.0))
        if clear_first:
            timer.clear()
        timer.set(1.0)  # same deadline, new key
        sim.run()
        assert order == [("b", 1.0), ("timer", 1.0)]


def test_timer_reset_during_its_own_instant():
    """Re-arming for the current instant from an event at that instant
    fires the timer after the events already due then."""
    sim = Simulator()
    order = []
    timer = make_timer(sim, order)
    timer.set(2.0)
    sim.at(1.0, timer.set, 1.0)
    sim.at(1.0, order.append, ("b", 1.0))
    sim.run()
    assert order == [("b", 1.0), ("timer", 1.0)]


def test_timer_callback_can_rearm():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.set(sim.now + 1.0)

    timer = sim.timer(tick)
    timer.set(1.0)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_timer_in_the_past_rejected_and_left_armed():
    sim = Simulator()
    order = []
    timer = make_timer(sim, order)
    timer.set(2.0)
    sim.run(until=1.0)
    with pytest.raises(ValueError):
        timer.set(0.5)
    assert timer.deadline == 2.0
    sim.run()
    assert order == [("timer", 2.0)]
