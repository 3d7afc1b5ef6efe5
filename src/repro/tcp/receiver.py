"""TCP receiver with delayed acknowledgements and in-order delivery."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.tcp.reno import ACK_SIZE_BYTES

#: Reused by pooled ACK acquisition (avoids a set literal per ACK).
_ACK_FLAGS = ("ACK",)


class TcpReceiver:
    """Receive side of a TCP connection.

    Delivers application payloads strictly in order through
    ``on_deliver(payload, seq, time)``.  Acknowledgement policy follows
    RFC 1122: ACK every second in-order segment, or after the delayed-ACK
    timer (default 100 ms, the ns-2 value); out-of-order and duplicate
    segments are acknowledged immediately (generating the duplicate ACKs
    fast retransmit depends on).
    """

    def __init__(self, sim: Simulator, node: Node,
                 on_deliver: Optional[
                     Callable[[Any, int, float], None]] = None,
                 delack_interval: float = 0.1,
                 delack_every: int = 2,
                 window_provider: Optional[Callable[[], int]] = None,
                 sack_enabled: bool = False,
                 max_sack_blocks: int = 4,
                 port: Optional[int] = None) -> None:
        self.sim = sim
        self.node = node
        self.on_deliver = on_deliver
        self.delack_interval = delack_interval
        self.delack_every = delack_every
        # Flow control: when set, every ACK advertises this window
        # (packets the application is willing to accept beyond
        # rcv_nxt).  None advertises unlimited, the paper's ample
        # client-buffer assumption (Section 2).
        self.window_provider = window_provider
        # SACK: when enabled, ACKs carry the received out-of-order
        # ranges (as the packet payload — the simulator's stand-in for
        # the SACK option), newest ranges first, up to
        # ``max_sack_blocks`` blocks as in RFC 2018.
        self.sack_enabled = sack_enabled
        self.max_sack_blocks = max_sack_blocks
        self.port = node.bind(self, port)

        self.rcv_nxt = 0
        self._ooo: Dict[int, Any] = {}
        self._unacked_segments = 0
        self._delack = sim.timer(self._on_delack_timer)
        self._peer: Optional[Tuple[str, int]] = None

        self.segments_received = 0
        self.duplicates = 0
        self.out_of_order = 0
        self.acks_sent = 0
        self.delivered = 0

    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        if packet.is_ack:
            return
        self._peer = (packet.src, packet.sport)
        self.segments_received += 1
        seq = packet.seq
        if seq < self.rcv_nxt:
            self.duplicates += 1
            self._send_ack()
            return
        if seq > self.rcv_nxt:
            self.out_of_order += 1
            self._ooo.setdefault(seq, packet.payload)
            self._send_ack()
            return

        # In-order segment: deliver it and any buffered successors.
        self._deliver(packet.payload, seq)
        self.rcv_nxt += 1
        while self.rcv_nxt in self._ooo:
            payload = self._ooo.pop(self.rcv_nxt)
            self._deliver(payload, self.rcv_nxt)
            self.rcv_nxt += 1

        self._unacked_segments += 1
        if self._unacked_segments >= self.delack_every:
            self._send_ack()
        elif self._delack.deadline is None:
            self._delack.set(self.sim.now + self.delack_interval)

    def _deliver(self, payload: Any, seq: int) -> None:
        self.delivered += 1
        if self.on_deliver is not None:
            self.on_deliver(payload, seq, self.sim.now)

    # ------------------------------------------------------------------
    def _on_delack_timer(self) -> None:
        if self._unacked_segments > 0:
            self._send_ack()

    def _send_ack(self) -> None:
        if self._peer is None:
            return
        self._delack.clear()
        self._unacked_segments = 0
        self.acks_sent += 1
        peer_name, peer_port = self._peer
        wnd = -1
        if self.window_provider is not None:
            wnd = max(0, int(self.window_provider()))
        pool = self.sim.pool
        if pool is not None:
            ack = pool.acquire(
                src=self.node.name, dst=peer_name, sport=self.port,
                dport=peer_port, size=ACK_SIZE_BYTES, ack=self.rcv_nxt,
                wnd=wnd, flags=_ACK_FLAGS, created_at=self.sim.now)
        else:
            ack = Packet(
                src=self.node.name, dst=peer_name, sport=self.port,
                dport=peer_port, size=ACK_SIZE_BYTES, ack=self.rcv_nxt,
                wnd=wnd, flags={"ACK"}, created_at=self.sim.now)
        if self.sack_enabled and self._ooo:
            ack.payload = self._sack_blocks()
        self.node.send(ack)

    def _sack_blocks(self) -> Tuple[Tuple[int, int], ...]:
        """Contiguous out-of-order ranges as (start, end) pairs,
        end-exclusive, highest ranges first, capped per RFC 2018."""
        seqs = sorted(self._ooo)
        blocks: List[Tuple[int, int]] = []
        start = prev = seqs[0]
        for seq in seqs[1:]:
            if seq == prev + 1:
                prev = seq
                continue
            blocks.append((start, prev + 1))
            start = prev = seq
        blocks.append((start, prev + 1))
        blocks.reverse()
        return tuple(blocks[:self.max_sack_blocks])
