"""Tests for the NewReno variant (partial-ACK fast recovery)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.tcp.newreno import NewRenoSender
from repro.tcp.receiver import TcpReceiver
from repro.tcp.socket import TcpConnection

from tests.tcp_harness import FakeLink


class NewRenoPair:
    """Like tests.tcp_harness.TcpPair but with a NewReno sender."""

    def __init__(self, drop_seqs=None, delay=0.05,
                 send_buffer_pkts=1000):
        self.sim = Simulator(seed=0)
        self.a = Node(self.sim, "a")
        self.b = Node(self.sim, "b")
        self.forward = FakeLink(self.sim, self.a, self.b, delay=delay,
                                drop_seqs=drop_seqs)
        self.backward = FakeLink(self.sim, self.b, self.a, delay=delay)
        self.a.add_route("b", self.forward)
        self.b.add_route("a", self.backward)
        self.delivered = []
        self.receiver = TcpReceiver(
            self.sim, self.b,
            on_deliver=lambda p, s, t: self.delivered.append(s))
        self.sender = NewRenoSender(
            self.sim, self.a, dst_name="b",
            dst_port=self.receiver.port,
            send_buffer_pkts=send_buffer_pkts)

    def write_all(self, count):
        for i in range(count):
            self.sender.write(f"pkt{i}")

    def run(self, until=60.0):
        self.sim.run(until=until)


def test_newreno_single_loss_same_as_reno():
    pair = NewRenoPair(drop_seqs=[20])
    pair.write_all(60)
    pair.run()
    assert pair.delivered == list(range(60))
    assert pair.sender.fast_retransmits == 1
    assert pair.sender.timeouts == 0


def test_newreno_burst_loss_recovers_without_timeout():
    # Three consecutive drops in one window: NewReno walks the holes
    # with partial ACKs, one halving, no timeout.
    pair = NewRenoPair(drop_seqs=[30, 31, 32])
    pair.write_all(120)
    pair.run()
    assert pair.delivered == list(range(120))
    assert pair.sender.timeouts == 0
    assert pair.sender.fast_retransmits == 1  # one recovery episode
    assert pair.sender.retransmits >= 3       # one per hole


def test_reno_burst_loss_is_worse():
    from tests.tcp_harness import TcpPair
    reno = TcpPair(drop_seqs=[30, 31, 32])
    reno.write_all(120)
    reno.run()
    newreno = NewRenoPair(drop_seqs=[30, 31, 32])
    newreno.write_all(120)
    newreno.run()
    assert [s for s, _, _ in reno.delivered] == list(range(120))
    # Reno needs extra recovery episodes and/or timeouts for the same
    # burst; NewReno finishes the transfer no later.
    reno_cost = reno.sender.timeouts + reno.sender.fast_retransmits
    newreno_cost = (newreno.sender.timeouts
                    + newreno.sender.fast_retransmits)
    assert newreno_cost <= reno_cost
    assert newreno.sender.timeouts <= reno.sender.timeouts


def test_newreno_full_ack_exits_recovery():
    pair = NewRenoPair(drop_seqs=[10])
    pair.write_all(40)
    pair.run()
    assert not pair.sender.in_fast_recovery
    # Deflated to ssthresh at exit; congestion avoidance may have
    # grown it since, but it can never sit below ssthresh again.
    assert pair.sender.cwnd >= pair.sender.ssthresh - 1e-9


def test_connection_variant_selection():
    sim = Simulator()
    a = Node(sim, "a")
    b = Node(sim, "b")
    from repro.sim.link import duplex_link
    duplex_link(sim, a, b, 1e6, 0.01)
    conn = TcpConnection(sim, a, b, variant="newreno")
    assert isinstance(conn.sender, NewRenoSender)
    assert conn.variant == "newreno"
    with pytest.raises(ValueError):
        TcpConnection(sim, a, b, variant="vegas")


def test_session_accepts_variant():
    from repro import BottleneckSpec, MultiSessionCampaign, PathConfig
    spec = BottleneckSpec(bandwidth_bps=2e6, delay_s=0.005,
                          buffer_pkts=40)
    paths = [PathConfig(bottleneck=spec)] * 2
    session = MultiSessionCampaign(mu=40, duration_s=10, paths=paths,
                                   seed=1, tcp_variant="newreno")
    (result,) = session.run().sessions
    assert len(result.arrivals) == result.total_packets
