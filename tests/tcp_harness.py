"""Shared helpers for TCP tests: a controllable point-to-point wire.

``FakeLink`` implements just enough of the Link interface (``src`` and
``enqueue``) to be installed in a node's routing table, delivering
packets after a fixed delay and dropping exactly the transmissions the
test asks for — either by sequence number ("drop the first copy of
seq 5") or by transmission index.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.tcp.receiver import TcpReceiver
from repro.tcp.reno import RenoSender


class FakeLink:
    """Deterministic wire with scripted drops."""

    def __init__(self, sim: Simulator, src: Node, dst: Node,
                 delay: float = 0.05,
                 drop_seqs: Optional[Iterable[int]] = None,
                 drop_nth: Optional[Iterable[int]] = None):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.delay = delay
        self._drop_seqs = set(drop_seqs or ())
        self._drop_nth = set(drop_nth or ())
        self.transmitted = 0
        self.dropped = 0

    def enqueue(self, packet) -> None:
        index = self.transmitted
        self.transmitted += 1
        if index in self._drop_nth:
            self.dropped += 1
            return
        if not packet.is_ack and packet.seq in self._drop_seqs:
            self._drop_seqs.discard(packet.seq)  # drop first copy only
            self.dropped += 1
            return
        self.sim.schedule(self.delay, self.dst.receive, packet)


class TcpPair:
    """A sender/receiver pair over FakeLinks, ready to exercise."""

    def __init__(self, seed: int = 0, delay: float = 0.05,
                 drop_seqs: Optional[Iterable[int]] = None,
                 drop_nth: Optional[Iterable[int]] = None,
                 send_buffer_pkts: int = 1000,
                 delack_interval: float = 0.1,
                 min_rto: float = 0.2,
                 sender_cls: type = RenoSender,
                 receiver_cls: type = TcpReceiver,
                 sack_enabled: bool = False):
        self.sim = Simulator(seed=seed)
        self.a = Node(self.sim, "a")
        self.b = Node(self.sim, "b")
        self.forward = FakeLink(self.sim, self.a, self.b, delay=delay,
                                drop_seqs=drop_seqs, drop_nth=drop_nth)
        self.backward = FakeLink(self.sim, self.b, self.a, delay=delay)
        self.a.add_route("b", self.forward)
        self.b.add_route("a", self.backward)

        self.delivered = []
        self.receiver = receiver_cls(
            self.sim, self.b, delack_interval=delack_interval,
            sack_enabled=sack_enabled,
            on_deliver=lambda payload, seq, t:
                self.delivered.append((seq, payload, t)))
        self.space_events = []
        self.sender = sender_cls(
            self.sim, self.a, dst_name="b",
            dst_port=self.receiver.port,
            send_buffer_pkts=send_buffer_pkts, min_rto=min_rto,
            on_send_space=lambda s: self.space_events.append(
                self.sim.now))

    def write_all(self, count: int) -> int:
        written = 0
        for i in range(count):
            if not self.sender.write(f"pkt{i}"):
                break
            written += 1
        return written

    def run(self, until: float = 60.0) -> None:
        self.sim.run(until=until)
