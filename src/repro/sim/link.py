"""Point-to-point links with serialisation, propagation and buffering."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple, TYPE_CHECKING

from repro.sim.engine import Event, Simulator
from repro.sim.packet import Packet
from repro.sim.queueing import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.node import Node


class Link:
    """A unidirectional store-and-forward link.

    Offered packets enter the buffer, are serialised one at a time at
    ``bandwidth_bps`` (sampled at each serialisation start; see
    :meth:`set_bandwidth`) and reach ``dst`` after ``delay_s``.  Probes:
    ``link.enqueue`` / ``link.send`` / ``link.recv`` / ``link.drop``.

    On a FIFO buffer that reads no clock at dequeue
    (``queue.fixed_departures``: drop-tail, RED) a packet's start
    ``max(now, free_at)`` and delivery ``start + size*8/bw + delay``
    are fixed at admission: one calendar event per packet, plus a
    probe-only one while ``link.send`` has a subscriber.  The buffer
    (admitted packets whose start is ahead; one starting exactly
    ``now`` included) is reconciled lazily.  PIE and FQ-PIE keep two
    events per packet; see ``docs/performance.md``.
    """

    def __init__(self, sim: Simulator, src: "Node", dst: "Node",
                 bandwidth_bps: float, delay_s: float,
                 queue_limit_pkts: int = 50,
                 queue: Optional[DropTailQueue] = None,
                 name: Optional[str] = None) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("propagation delay must be non-negative")
        self.sim = sim
        self.src = src
        self.dst = dst
        self._bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue = queue if queue is not None \
            else DropTailQueue(queue_limit_pkts)
        self.name = name or f"{src.name}->{dst.name}"
        self._one_event = self.queue.fixed_departures
        self._free_at = float("-inf")  # end of the last admitted packet
        # (start, end, size, delivery) per buffered packet, in FIFO
        # order; the size outlives a pooled packet's recycling.
        self._waiting: Deque[Tuple[float, float, int, Event]] = deque()
        self._send_event: Optional[Event] = None
        self._busy = False  # two-event path
        # Serialisations started (one-event) or ended (two-event).
        self._tx_packets = 0
        self._tx_bytes = 0
        self._wire_size = 0
        bus = sim.bus
        self._p_enqueue = bus.probe("link.enqueue")
        self._p_drop = bus.probe("link.drop")
        self._p_send = bus.probe("link.send")
        self._p_recv = bus.probe("link.recv")
        src.register_link(self)

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Offer a packet to the link buffer (drop-tail on overflow)."""
        sim = self.sim
        now = sim.now
        waiting = self._waiting
        if waiting and waiting[0][0] < now:
            self._start_due(now)
        queue = self.queue
        if not queue.offer(packet):
            if self._p_drop.active:
                self._p_drop.emit(now, self.name, packet, self.backlog())
            if sim.pool is not None:  # drops hit the offered packet
                sim.pool.release(packet)
            return
        if self._p_enqueue.active:
            self._p_enqueue.emit(now, self.name, packet, self.backlog())
        if not self._one_event:
            if not self._busy:
                self._transmit_next()
            return
        size = packet.size
        tx_time = size * 8.0 / self._bandwidth_bps
        free_at = self._free_at
        if free_at < now:  # idle wire: start at once
            queue.pop()
            self._tx_packets += 1
            self._tx_bytes += size
            self._wire_size = size
            done = now + tx_time
        else:
            done = free_at + tx_time
        self._free_at = done
        if self._send_event is None and self._p_send.active:
            self._send_event = sim.at(done, self._send, packet)
        event = sim.at(done + self.delay_s, self._deliver, packet)
        if free_at >= now:
            waiting.append((free_at, done, size, event))

    def backlog(self) -> int:
        """Buffered packets: admitted, serialisation not yet started."""
        self._start_due(self.sim.now)
        return len(self.queue)

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Serialise every packet that has not started at this rate."""
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self._bandwidth_bps = bandwidth_bps
        if not self._one_event or not self.backlog():
            return
        sim, waiting, send = self.sim, self._waiting, self._send_event
        start = waiting[0][0]
        for _ in range(len(waiting)):  # rotate through, re-timing each
            _, _, size, event = waiting.popleft()
            event.cancel()
            packet = event.args[0]
            done = start + size * 8.0 / bandwidth_bps
            waiting.append((start, done, size, sim.at(
                done + self.delay_s, self._deliver, packet)))
            if send is not None and send.args[0] is packet:
                send.cancel()
                self._send_event = sim.at(done, self._send, packet)
            start = done
        self._free_at = start

    @property
    def bandwidth_bps(self) -> float:
        return self._bandwidth_bps

    def _start_due(self, now: float) -> None:
        waiting = self._waiting
        pop = self.queue.pop
        while waiting and waiting[0][0] < now:
            size = waiting.popleft()[2]
            pop()
            self._tx_packets += 1
            self._tx_bytes += size
            self._wire_size = size

    def _send(self, packet: Packet) -> None:
        """``link.send`` at serialisation end; chains to the successor
        (starting now), as the two-event path's ``_tx_done`` does."""
        self._send_event = None
        if not self._p_send.active:
            return
        sim = self.sim
        self._p_send.emit(sim.now, self.name, packet)
        if self.backlog():
            start, done, size, event = self._waiting[0]
            successor = event.args[0]
            self._send_event = sim.at(done, self._send, successor)
            if not self.delay_s:  # keep the send ahead of the delivery
                event.cancel()
                self._waiting[0] = (start, done, size, sim.at(
                    done, self._deliver, successor))

    def _transmit_next(self) -> None:
        packet = self.queue.pop()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        tx_time = packet.size * 8.0 / self._bandwidth_bps
        self.sim.schedule(tx_time, self._tx_done, packet)

    def _tx_done(self, packet: Packet) -> None:
        self._tx_packets += 1
        self._tx_bytes += packet.size
        if self._p_send.active:
            self._p_send.emit(self.sim.now, self.name, packet)
        self.sim.schedule(self.delay_s, self._deliver, packet)
        self._transmit_next()

    def _deliver(self, packet: Packet) -> None:
        packet.hops += 1
        if self._p_recv.active:
            self._p_recv.emit(self.sim.now, self.name, packet)
        self.dst.receive(packet)

    def _serialised(self) -> Tuple[int, int]:
        """(packets, bytes) whose serialisation has ended by now."""
        self.backlog()
        waiting = self._waiting
        if (waiting[0][0] if waiting else self._free_at) > self.sim.now:
            return self._tx_packets - 1, self._tx_bytes - self._wire_size
        return self._tx_packets, self._tx_bytes

    @property
    def tx_packets(self) -> int:
        """Packets (``tx_bytes``: bytes) fully serialised by now."""
        return self._serialised()[0]

    @property
    def tx_bytes(self) -> int:
        return self._serialised()[1]

    @property
    def drops(self) -> int:
        return self.queue.drops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Link {self.name} {self.bandwidth_bps / 1e6:.2f}Mbps "
                f"{self.delay_s * 1e3:.1f}ms q={self.backlog()}/"
                f"{self.queue.capacity}>")


def duplex_link(sim: Simulator, a: "Node", b: "Node",
                bandwidth_bps: float, delay_s: float,
                queue_limit_pkts: int = 50) -> Tuple[Link, Link]:
    """Create a pair of symmetric links ``a -> b`` and ``b -> a``.

    Routes for the two endpoints are installed automatically; transit
    routes (for multi-hop paths) must be added by the topology builder.
    """
    forward = Link(sim, a, b, bandwidth_bps, delay_s, queue_limit_pkts)
    backward = Link(sim, b, a, bandwidth_bps, delay_s, queue_limit_pkts)
    a.add_route(b.name, forward)
    b.add_route(a.name, backward)
    return forward, backward
