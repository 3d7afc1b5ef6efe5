"""Test-only reference: the two-event FIFO link.

This is the link the simulator used before delivery events were fixed
at admission: a ``_tx_done`` event at each serialisation end pops the
next buffered packet, samples the bandwidth for it and schedules its
own ``_deliver`` event.  Every packet costs two calendar events and
the buffer is exactly ``len(queue)``.

It stays here as the oracle for ``tests/test_link_differential.py``,
which drives it and :class:`repro.sim.link.Link` with the same offers,
bandwidth changes and occupancy reads and requires identical
per-packet times, drop decisions and occupancy.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.queueing import DropTailQueue


class ReferenceLink:
    """Two calendar events per packet: serialisation end, delivery."""

    def __init__(self, sim: Simulator, src: Node, dst: Node,
                 bandwidth_bps: float, delay_s: float,
                 queue_limit_pkts: int = 50,
                 queue: Optional[DropTailQueue] = None,
                 name: Optional[str] = None) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue = queue if queue is not None \
            else DropTailQueue(queue_limit_pkts)
        self.name = name or f"{src.name}->{dst.name}"
        self._busy = False
        self.tx_packets = 0
        self.tx_bytes = 0
        bus = sim.bus
        self._p_enqueue = bus.probe("link.enqueue")
        self._p_drop = bus.probe("link.drop")
        self._p_send = bus.probe("link.send")
        self._p_recv = bus.probe("link.recv")

    def enqueue(self, packet: Packet) -> None:
        if not self.queue.offer(packet):
            if self._p_drop.active:
                self._p_drop.emit(self.sim.now, self.name, packet,
                                  len(self.queue))
            pool = self.sim.pool
            if pool is not None:
                pool.release(packet)
            return
        if self._p_enqueue.active:
            self._p_enqueue.emit(self.sim.now, self.name, packet,
                                 len(self.queue))
        if not self._busy:
            self._transmit_next()

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Bandwidth is sampled at each serialisation start."""
        self.bandwidth_bps = bandwidth_bps

    def backlog(self) -> int:
        return len(self.queue)

    def _transmit_next(self) -> None:
        packet = self.queue.pop()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        tx_time = packet.size * 8.0 / self.bandwidth_bps
        self.sim.schedule(tx_time, self._tx_done, packet)

    def _tx_done(self, packet: Packet) -> None:
        self.tx_packets += 1
        self.tx_bytes += packet.size
        if self._p_send.active:
            self._p_send.emit(self.sim.now, self.name, packet)
        self.sim.schedule(self.delay_s, self._deliver, packet)
        self._transmit_next()

    def _deliver(self, packet: Packet) -> None:
        packet.hops += 1
        if self._p_recv.active:
            self._p_recv.emit(self.sim.now, self.name, packet)
        self.dst.receive(packet)
