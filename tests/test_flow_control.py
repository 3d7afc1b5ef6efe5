"""Tests for TCP flow control and the finite client buffer."""

import pytest

from repro import BottleneckSpec, MultiSessionCampaign, PathConfig
from repro.core.client import BufferedStreamClient
from repro.sim.engine import Simulator
from repro.sim.link import duplex_link
from repro.sim.node import Node
from repro.tcp.socket import TcpConnection


def pair_with_window(window_provider, seed=0, bandwidth=2e6):
    sim = Simulator(seed=seed)
    a = Node(sim, "a")
    b = Node(sim, "b")
    duplex_link(sim, a, b, bandwidth, 0.01, queue_limit_pkts=200)
    got = []
    conn = TcpConnection(sim, a, b, send_buffer_pkts=500,
                         window_provider=window_provider,
                         on_deliver=lambda p, s, t: got.append(p))
    return sim, conn, got


def test_unlimited_window_by_default():
    sim, conn, got = pair_with_window(None)
    for i in range(200):
        conn.write(i)
    sim.run(until=30)
    assert got == list(range(200))
    assert conn.sender.peer_wnd is None


def test_small_window_throttles_inflight():
    sim, conn, got = pair_with_window(lambda: 4)
    for i in range(300):
        conn.write(i)
    max_outstanding = 0

    # Sample outstanding over time.
    def sample():
        nonlocal max_outstanding
        max_outstanding = max(max_outstanding,
                              conn.sender.outstanding)
        if sim.now < 30:
            sim.schedule(0.05, sample)

    sim.schedule(0.5, sample)
    sim.run(until=60)
    assert got == list(range(300))
    # cwnd would grow far beyond 4 on this clean path; the advertised
    # window caps it (first flight may precede the first ACK).
    assert max_outstanding <= 6


def test_zero_window_floors_at_one_segment():
    sim, conn, got = pair_with_window(lambda: 0)
    for i in range(20):
        conn.write(i)
    sim.run(until=60)
    # Trickles at ~1 packet per RTT but never deadlocks.
    assert got == list(range(20))


def test_buffered_client_window_accounting():
    sim = Simulator()
    client = BufferedStreamClient(sim, mu=10, tau=2.0, capacity=5,
                                  stream_start=0.0)
    from repro.core.packets import VideoPacket
    assert client.window() == 5
    for i in range(5):
        client.on_packet(VideoPacket(i, 0.0), time=0.0)
    assert client.early_packets() == 5
    assert client.window() == 0
    assert client.zero_window_acks == 1
    # Playback starts at tau=2: by t=2.5, 5 packets consumed.
    sim.run(until=2.5)
    sim.now = 2.5
    assert client.played_by_now() == 5
    assert client.window() == 5


def test_buffered_client_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        BufferedStreamClient(sim, mu=0, tau=1, capacity=5)
    with pytest.raises(ValueError):
        BufferedStreamClient(sim, mu=1, tau=-1, capacity=5)
    with pytest.raises(ValueError):
        BufferedStreamClient(sim, mu=1, tau=1, capacity=0)


FAST = BottleneckSpec(bandwidth_bps=2e6, delay_s=0.005,
                      buffer_pkts=40)


def test_session_with_finite_client_buffer():
    paths = [PathConfig(bottleneck=FAST)] * 2
    session = MultiSessionCampaign(mu=40, duration_s=30, paths=paths,
                                   seed=3, client_buffer_pkts=100,
                                   client_tau=4.0)
    (result,) = session.run().sessions
    # Everything still arrives (back-pressure, not loss).
    assert len(result.arrivals) == result.total_packets
    # The buffer bound was respected throughout.
    client = session.assemblies[0].client
    assert client.capacity == 100


def test_tight_client_buffer_forces_lateness():
    """A buffer far below mu*tau cannot hold the prefetch the startup
    delay is supposed to provide: lateness rises."""
    paths = [PathConfig(bottleneck=BottleneckSpec(
        bandwidth_bps=9e5, delay_s=0.01, buffer_pkts=30),
        n_ftp=1, n_http=2)] * 2
    tau = 6.0
    (roomy,) = MultiSessionCampaign(mu=60, duration_s=60, paths=paths,
                                    seed=5, client_buffer_pkts=1000,
                                    client_tau=tau).run().sessions
    (tight,) = MultiSessionCampaign(mu=60, duration_s=60, paths=paths,
                                    seed=5, client_buffer_pkts=10,
                                    client_tau=tau).run().sessions
    assert tight.late_fraction(tau) >= roomy.late_fraction(tau)
