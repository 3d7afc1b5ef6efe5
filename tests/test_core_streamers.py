"""Unit tests for the DMP / static / single-path streamers."""

import pytest

from repro.core.client import StreamClient
from repro.core.server_queue import ServerQueue
from repro.core.source import VideoSource
from repro.core.streamers import DmpStreamer, StaticStreamer
from repro.sim.engine import Simulator
from repro.sim.link import duplex_link
from repro.sim.node import Node
from repro.tcp.socket import TcpConnection


def build_paths(bandwidths, seed=0, delay=0.02, limit=100):
    """Server multihomed to one client interface per path."""
    sim = Simulator(seed=seed)
    server = Node(sim, "server")
    client = StreamClient()
    connections = []
    for k, bandwidth in enumerate(bandwidths, start=1):
        client_if = Node(sim, f"client{k}")
        duplex_link(sim, server, client_if, bandwidth, delay,
                    queue_limit_pkts=limit)
        connections.append(TcpConnection(
            sim, server, client_if, send_buffer_pkts=16,
            on_deliver=client.deliver_callback(f"path{k}")))
    return sim, connections, client


def stream(sim, streamer, mu, duration, extra=30.0):
    queue = getattr(streamer, "queue", None)
    source = VideoSource(sim, queue, mu=mu, duration_s=duration)
    streamer.attach_source(source)
    sim.run(until=duration + extra)
    return source


def test_dmp_equal_paths_split_evenly():
    sim, conns, client = build_paths([1e6, 1e6])
    streamer = DmpStreamer(sim, conns)
    stream(sim, streamer, mu=60, duration=30)
    assert client.received == 1800
    shares = streamer.path_shares
    assert shares[0] == pytest.approx(0.5, abs=0.1)


def test_dmp_faster_path_carries_more():
    # Path 1 has 4x the bandwidth of path 2; both below demand so the
    # scheme is bandwidth-limited and shares track capacity.
    sim, conns, client = build_paths([8e5, 2e5])
    streamer = DmpStreamer(sim, conns)
    stream(sim, streamer, mu=100, duration=30, extra=120)
    shares = streamer.path_shares
    assert shares[0] > 0.65
    assert shares[0] + shares[1] == pytest.approx(1.0)


def test_dmp_all_packets_delivered_once():
    sim, conns, client = build_paths([1e6, 5e5], seed=3)
    streamer = DmpStreamer(sim, conns)
    source = stream(sim, streamer, mu=80, duration=20, extra=60)
    assert client.received == source.total_packets
    assert client.duplicates == 0
    numbers = sorted(n for n, _ in client.arrivals)
    assert numbers == list(range(source.total_packets))


def test_dmp_adapts_to_mid_stream_degradation():
    sim, conns, client = build_paths([1e6, 1e6], seed=4)
    streamer = DmpStreamer(sim, conns)
    queue = streamer.queue
    source = VideoSource(sim, queue, mu=100, duration_s=40)
    streamer.attach_source(source)
    sim.run(until=20)
    before = list(streamer.sent_per_path)
    # Path 2's bandwidth collapses mid-stream.
    _forward_link(conns[1]).set_bandwidth(5e4)
    sim.run(until=80)
    after = streamer.sent_per_path
    delta1 = after[0] - before[0]
    delta2 = after[1] - before[1]
    assert delta1 > 2.0 * delta2  # traffic shifted to healthy path


def _forward_link(connection):
    node = connection.sender.node
    return node.route_for(connection.sender.dst_name)


def test_dmp_requires_connections():
    with pytest.raises(ValueError):
        DmpStreamer(Simulator(), [])


def test_dmp_attach_requires_same_queue():
    sim, conns, client = build_paths([1e6])
    streamer = DmpStreamer(sim, conns)
    foreign = VideoSource(sim, ServerQueue(), mu=10, duration_s=1)
    with pytest.raises(ValueError):
        streamer.attach_source(foreign)


def test_single_path_streamer_is_dmp_with_one_path():
    sim, conns, client = build_paths([1e6])
    streamer = DmpStreamer(sim, conns[:1])
    source = stream(sim, streamer, mu=50, duration=10)
    assert client.received == source.total_packets
    assert streamer.path_shares == [1.0]


def test_static_equal_weights_alternate():
    sim, conns, client = build_paths([1e6, 1e6])
    streamer = StaticStreamer(sim, conns)
    stream(sim, streamer, mu=40, duration=10)
    # Exact odd/even split regardless of dynamics.
    assert streamer.sent_per_path[0] == streamer.sent_per_path[1]
    assert client.received == 400


def test_static_does_not_adapt_to_capacity():
    # Slow path gets half the packets anyway; they arrive late or not
    # at all within the horizon, unlike DMP on the same paths.
    sim, conns, client = build_paths([8e5, 1e5], seed=6)
    streamer = StaticStreamer(sim, conns)
    stream(sim, streamer, mu=80, duration=20, extra=20)
    assigned = streamer.assigned_per_path
    assert abs(assigned[0] - assigned[1]) <= 1
    assert client.received < 1600  # slow half still in flight


def test_static_weighted_split():
    sim, conns, client = build_paths([1e6, 1e6])
    streamer = StaticStreamer(sim, conns, weights=[3, 1])
    stream(sim, streamer, mu=40, duration=10)
    sent = streamer.sent_per_path
    assert sent[0] == pytest.approx(3 * sent[1], rel=0.05)


def test_static_invalid_weights():
    sim, conns, client = build_paths([1e6, 1e6])
    with pytest.raises(ValueError):
        StaticStreamer(sim, conns, weights=[1.0])
    with pytest.raises(ValueError):
        StaticStreamer(sim, conns, weights=[1.0, -1.0])


def test_dmp_beats_static_on_asymmetric_paths():
    mu, duration = 80, 30
    sim_d, conns_d, client_d = build_paths([7e5, 3e5], seed=9)
    dmp = DmpStreamer(sim_d, conns_d)
    stream(sim_d, dmp, mu=mu, duration=duration, extra=10)

    sim_s, conns_s, client_s = build_paths([7e5, 3e5], seed=9)
    static = StaticStreamer(sim_s, conns_s)
    stream(sim_s, static, mu=mu, duration=duration, extra=10)

    from repro.core.metrics import late_fraction
    tau = 2.0
    dmp_late = late_fraction(client_d.arrivals, mu, tau,
                             total_packets=mu * duration)
    static_late = late_fraction(client_s.arrivals, mu, tau,
                                total_packets=mu * duration)
    assert dmp_late <= static_late
