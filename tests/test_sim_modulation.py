"""Tests for time-varying link capacity."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.modulation import OFF_BANDWIDTH_BPS, OnOffLinkModulator
from repro.sim.node import Node
from repro.sim.packet import Packet


class Sink:
    def __init__(self):
        self.times = []

    def handle_packet(self, packet):
        self.times.append(packet)


def build_link(sim, bandwidth=1e6):
    a = Node(sim, "a")
    b = Node(sim, "b")
    link = Link(sim, a, b, bandwidth, 0.0, queue_limit_pkts=1000)
    a.add_route("b", link)
    sink = Sink()
    b.bind(sink, port=1)
    return a, link, sink


def test_onoff_validation():
    sim = Simulator()
    a, link, sink = build_link(sim)
    with pytest.raises(ValueError):
        OnOffLinkModulator(sim, link, on_bandwidth_bps=1e6,
                           period=10, on_time=0)
    with pytest.raises(ValueError):
        OnOffLinkModulator(sim, link, on_bandwidth_bps=0)


def test_onoff_square_wave_switches_bandwidth():
    sim = Simulator()
    a, link, sink = build_link(sim)
    OnOffLinkModulator(sim, link, on_bandwidth_bps=1e6, period=10,
                       on_time=5)
    assert link.bandwidth_bps == 1e6
    sim.run(until=5.001)
    assert link.bandwidth_bps == OFF_BANDWIDTH_BPS
    sim.run(until=10.001)
    assert link.bandwidth_bps == 1e6
    sim.run(until=15.001)
    assert link.bandwidth_bps == OFF_BANDWIDTH_BPS


def test_onoff_phase_offset():
    sim = Simulator()
    a, link, sink = build_link(sim)
    OnOffLinkModulator(sim, link, on_bandwidth_bps=1e6, period=10,
                       on_time=5, phase=7.0)
    # Phase 7 lands in the off part of the cycle.
    assert link.bandwidth_bps == OFF_BANDWIDTH_BPS
    sim.run(until=3.001)  # cycle position 10 -> on
    assert link.bandwidth_bps == 1e6


def test_onoff_throughput_roughly_halved():
    sim = Simulator()
    a, link, sink = build_link(sim, bandwidth=8e5)
    OnOffLinkModulator(sim, link, on_bandwidth_bps=8e5, period=10,
                       on_time=5)
    # Constant offered load of 100 pkts/s of 1000 B (= 8e5 bps).
    def offer():
        a.send(Packet("a", "b", 1, 1, 1000))
        if sim.now < 60:
            sim.schedule(0.01, offer)

    sim.schedule(0.0, offer)
    sim.run(until=100)
    received = len(sink.times)
    # ~50% duty cycle: roughly half the offered packets get through
    # (queue limited), certainly well below the offered 6000.
    assert 2000 < received < 4500


def test_in_flight_packet_unaffected_by_later_switch():
    """Bandwidth is sampled at serialisation start: a packet already
    being transmitted finishes at the old rate."""
    sim = Simulator()
    a, link, sink = build_link(sim, bandwidth=8e3)  # 1 s per 1000 B
    a.send(Packet("a", "b", 1, 1, 1000))
    sim.schedule(0.5, link.set_bandwidth, 8e6)
    sim.run()
    # Delivered at t = 1.0 (old rate), not 0.5 + epsilon.
    assert sim.now == pytest.approx(1.0)
