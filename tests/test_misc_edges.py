"""Edge-case tests across small utilities."""

import pytest

from repro.experiments.report import _fmt, render_table
from repro.experiments.runner import _mean_ci95
from repro.sim.engine import Event, Simulator


# ------------------------------------------------------------------
# Engine ordering
# ------------------------------------------------------------------
def test_event_ordering_by_time_then_seq():
    e1 = Event(1.0, 0, lambda: None, ())
    e2 = Event(1.0, 1, lambda: None, ())
    e3 = Event(0.5, 2, lambda: None, ())
    assert e3 < e1 < e2


def test_cancel_after_fire_is_harmless():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, 1)
    sim.run()
    event.cancel()  # no error
    assert fired == [1]


def test_pending_events_counter():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


# ------------------------------------------------------------------
# Report formatting
# ------------------------------------------------------------------
def test_fmt_zero_and_extremes():
    assert _fmt(0.0) == "0"
    assert _fmt(None) == "-"
    assert _fmt(1234567.0) == "1.23e+06"
    assert _fmt(0.0005) == "5.00e-04"
    assert _fmt(3.14159) == "3.142"
    assert _fmt("text") == "text"
    assert _fmt(7) == "7"


def test_render_table_empty_rows():
    text = render_table(["a", "b"], [])
    assert "a" in text and "b" in text


# ------------------------------------------------------------------
# CI helper
# ------------------------------------------------------------------
def test_mean_ci95_large_sample_uses_normal_quantile():
    values = [float(i % 7) for i in range(100)]
    mean, ci = _mean_ci95(values)
    assert mean == pytest.approx(sum(values) / 100)
    assert 0 < ci < 1.0


def test_mean_ci95_constant_values():
    mean, ci = _mean_ci95([2.0, 2.0, 2.0, 2.0])
    assert mean == 2.0
    assert ci == 0.0


# ------------------------------------------------------------------
# Sender bookkeeping
# ------------------------------------------------------------------
def test_sender_bytes_in_flight():
    from tests.tcp_harness import TcpPair
    pair = TcpPair()
    pair.write_all(4)
    # Initial window is 2 segments of 1500 B.
    assert pair.sender.bytes_in_flight == 2 * 1500
    pair.run()
    assert pair.sender.bytes_in_flight == 0


def test_sender_free_space_tracks_buffer():
    from tests.tcp_harness import TcpPair
    pair = TcpPair(send_buffer_pkts=10)
    assert pair.sender.free_space() == 10
    pair.write_all(3)
    assert pair.sender.free_space() == 7
    pair.run()
    assert pair.sender.free_space() == 10


# ------------------------------------------------------------------
# Stats dictionary shape
# ------------------------------------------------------------------
def test_connection_stats_keys_stable():
    from repro.sim.link import duplex_link
    from repro.sim.node import Node
    from repro.tcp.socket import TcpConnection
    sim = Simulator()
    a, b = Node(sim, "a"), Node(sim, "b")
    duplex_link(sim, a, b, 1e6, 0.01)
    conn = TcpConnection(sim, a, b)
    conn.write("x")
    sim.run(until=5)
    stats = conn.stats()
    expected = {"name", "segments_sent", "retransmits", "timeouts",
                "fast_retransmits", "delivered", "loss_estimate",
                "loss_event_estimate", "mean_rtt", "mean_rto",
                "timeout_ratio"}
    assert expected <= set(stats)
