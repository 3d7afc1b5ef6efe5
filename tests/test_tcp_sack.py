"""Tests for the SACK variant."""

from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sack import SackSender

from tests.tcp_harness import FakeLink


class SackPair:
    def __init__(self, drop_seqs=None, delay=0.05):
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
            self.sim, self.b, sack_enabled=True,
            on_deliver=lambda p, s, t: self.delivered.append(s))
        self.sender = SackSender(
            self.sim, self.a, dst_name="b",
            dst_port=self.receiver.port, send_buffer_pkts=1000)

    def write_all(self, count):
        for i in range(count):
            self.sender.write(f"pkt{i}")

    def run(self, until=60.0):
        self.sim.run(until=until)


def test_receiver_sack_blocks():
    sim = Simulator()
    node = Node(sim, "r")
    receiver = TcpReceiver(sim, node, sack_enabled=True)
    receiver._ooo = {5: None, 6: None, 9: None, 11: None, 12: None}
    blocks = receiver._sack_blocks()
    assert blocks == ((11, 13), (9, 10), (5, 7))


def test_receiver_sack_block_cap():
    sim = Simulator()
    node = Node(sim, "r")
    receiver = TcpReceiver(sim, node, sack_enabled=True,
                           max_sack_blocks=2)
    receiver._ooo = {1: None, 3: None, 5: None, 7: None}
    assert len(receiver._sack_blocks()) == 2


def test_single_loss_recovery():
    pair = SackPair(drop_seqs=[20])
    pair.write_all(60)
    pair.run()
    assert pair.delivered == list(range(60))
    assert pair.sender.timeouts == 0
    assert pair.sender.fast_retransmits == 1


def test_burst_loss_one_episode_no_timeout():
    pair = SackPair(drop_seqs=[30, 31, 32, 33])
    pair.write_all(150)
    pair.run()
    assert pair.delivered == list(range(150))
    assert pair.sender.timeouts == 0
    assert pair.sender.fast_retransmits == 1
    # Exactly the holes were retransmitted (no spurious go-back-N).
    assert pair.sender.retransmits <= 6


def test_scattered_losses_recovered():
    pair = SackPair(drop_seqs=[25, 40, 41, 55])
    pair.write_all(200)
    pair.run()
    assert pair.delivered == list(range(200))


def test_sack_beats_reno_on_bursts():
    from tests.tcp_harness import TcpPair
    drops = [30, 31, 32, 33]
    reno = TcpPair(drop_seqs=list(drops))
    reno.write_all(150)
    reno.run()
    sack = SackPair(drop_seqs=list(drops))
    sack.write_all(150)
    sack.run()
    reno_cost = reno.sender.timeouts + reno.sender.fast_retransmits
    sack_cost = sack.sender.timeouts + sack.sender.fast_retransmits
    assert sack_cost <= reno_cost
    assert sack.sender.timeouts == 0


def test_connection_level_sack():
    from repro.sim.link import duplex_link
    from repro.tcp.socket import TcpConnection
    sim = Simulator(seed=1)
    a = Node(sim, "a")
    b = Node(sim, "b")
    duplex_link(sim, a, b, 4e5, 0.01, queue_limit_pkts=6)
    got = []
    conn = TcpConnection(sim, a, b, variant="sack",
                         send_buffer_pkts=400,
                         on_deliver=lambda p, s, t: got.append(p))
    assert conn.receiver.sack_enabled
    for i in range(300):
        conn.write(i)
    sim.run(until=300)
    assert got == list(range(300))


def test_session_with_sack_variant():
    from repro import BottleneckSpec, MultiSessionCampaign, PathConfig
    spec = BottleneckSpec(bandwidth_bps=1.5e6, delay_s=0.005,
                          buffer_pkts=30)
    paths = [PathConfig(bottleneck=spec, n_ftp=1)] * 2
    session = MultiSessionCampaign(mu=40, duration_s=20, paths=paths,
                                   seed=2, tcp_variant="sack")
    (result,) = session.run().sessions
    assert len(result.arrivals) == result.total_packets
