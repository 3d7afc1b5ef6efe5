"""Packet-to-path allocation schemes.

* :class:`DmpStreamer` — the paper's Dynamic MPath-streaming: one shared
  server queue; every TCP sender fetches from the head whenever its send
  buffer has room, until it blocks (Fig. 2).  Bandwidth is inferred
  implicitly: faster paths drain their send buffers faster and therefore
  fetch more packets.
* :class:`StaticStreamer` — the Section 7.4 baseline: packets are
  assigned to paths in fixed proportions decided up front (equal split
  by default, i.e. odd/even packet numbers for K = 2).

The single-path scheme of [31] is :class:`DmpStreamer` with K = 1.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.core.packets import VideoPacket
from repro.core.server_queue import ServerQueue
from repro.core.source import VideoSource
from repro.sim.engine import Simulator
from repro.tcp.socket import TcpConnection


class DmpStreamer:
    """Dynamic MPath-streaming over K TCP connections."""

    def __init__(self, sim: Simulator,
                 connections: Sequence[TcpConnection],
                 queue: Optional[ServerQueue] = None) -> None:
        if not connections:
            raise ValueError("need at least one TCP connection")
        self.sim = sim
        self.queue = queue if queue is not None else ServerQueue(sim=sim)
        self.connections = list(connections)
        self.sent_per_path = [0] * len(self.connections)
        self._rr_offset = 0
        # Send-space callbacks fire on every ACK that frees buffer room
        # (the hottest path in the simulator), so the connection ->
        # index lookup must be O(1), not a list scan.
        self._conn_index = {id(conn): idx for idx, conn
                            in enumerate(self.connections)}
        self._p_assign = sim.bus.probe("streamer.assign")
        for conn in self.connections:
            conn._user_on_send_space = self.on_send_space

    # ------------------------------------------------------------------
    def attach_source(self, source: VideoSource) -> None:
        """Subscribe to a video source feeding :attr:`queue`."""
        if source.queue is not self.queue:
            raise ValueError("source must feed the streamer's queue")
        source.add_listener(self._on_generate)

    # ------------------------------------------------------------------
    def _on_generate(self, _packet: VideoPacket) -> None:
        # A new packet is available; give every sender that can send a
        # chance, rotating the starting index so no path is favoured
        # during transients when several buffers have room.
        n = len(self.connections)
        for i in range(n):
            idx = (self._rr_offset + i) % n
            self._drain_into(idx)
            if self.queue.is_empty:
                break
        self._rr_offset = (self._rr_offset + 1) % n

    def on_send_space(self, connection: TcpConnection) -> None:
        self._drain_into(self._conn_index[id(connection)])

    def _drain_into(self, idx: int) -> None:
        """Fig. 2 inner loop: lock, fetch until blocked or empty."""
        connection = self.connections[idx]
        if self.queue.is_empty or not connection.can_write():
            return
        owner = connection
        if not self.queue.acquire(owner):
            return
        try:
            while connection.can_write():
                packet = self.queue.fetch(owner)
                if packet is None:
                    break
                if self._p_assign.active:
                    self._p_assign.emit(self.sim.now, idx,
                                        packet.number)
                connection.write(packet)
                self.sent_per_path[idx] += 1
        finally:
            self.queue.release(owner)

    # ------------------------------------------------------------------
    @property
    def path_shares(self) -> List[float]:
        """Fraction of packets fetched by each path so far."""
        total = sum(self.sent_per_path)
        if total == 0:
            return [0.0] * len(self.connections)
        return [count / total for count in self.sent_per_path]


class StaticStreamer:
    """Static packet allocation onto K paths (Section 7.4 baseline).

    Packets are assigned to paths in proportion to ``weights``
    (pre-measured average bandwidths).  With the default equal weights
    and K = 2 this is exactly the paper's odd/even split.  Each path has
    its own private queue; a congested path's packets wait for that path
    no matter how idle the others are — the behaviour DMP avoids.
    """

    def __init__(self, sim: Simulator,
                 connections: Sequence[TcpConnection],
                 weights: Optional[Sequence[float]] = None) -> None:
        if not connections:
            raise ValueError("need at least one TCP connection")
        self.sim = sim
        self.connections = list(connections)
        k = len(self.connections)
        if weights is None:
            weights = [1.0] * k
        if len(weights) != k or any(w <= 0 for w in weights):
            raise ValueError("need one positive weight per path")
        total = float(sum(weights))
        self.weights = [w / total for w in weights]
        self._queues: List[Deque[VideoPacket]] = [
            deque() for _ in range(k)]
        self._credits = [0.0] * k
        self.sent_per_path = [0] * k
        self.assigned_per_path = [0] * k
        self._conn_index = {id(conn): idx for idx, conn
                            in enumerate(self.connections)}
        self._p_assign = sim.bus.probe("streamer.assign")
        for conn in self.connections:
            conn._user_on_send_space = self.on_send_space

    def attach_source(self, source: VideoSource) -> None:
        source.add_listener(self._on_generate)

    def _route(self) -> int:
        """Weighted deficit round-robin path choice."""
        for i, weight in enumerate(self.weights):
            self._credits[i] += weight
        idx = max(range(len(self._credits)),
                  key=lambda i: self._credits[i])
        self._credits[idx] -= 1.0
        return idx

    def _on_generate(self, packet: VideoPacket) -> None:
        idx = self._route()
        self.assigned_per_path[idx] += 1
        if self._p_assign.active:
            self._p_assign.emit(self.sim.now, idx, packet.number)
        self._queues[idx].append(packet)
        self._drain(idx)

    def on_send_space(self, connection: TcpConnection) -> None:
        self._drain(self._conn_index[id(connection)])

    def _drain(self, idx: int) -> None:
        connection = self.connections[idx]
        queue = self._queues[idx]
        while queue and connection.can_write():
            connection.write(queue.popleft())
            self.sent_per_path[idx] += 1

    @property
    def path_shares(self) -> List[float]:
        total = sum(self.sent_per_path)
        if total == 0:
            return [0.0] * len(self.connections)
        return [count / total for count in self.sent_per_path]
