"""TCP Reno sender.

Sequence numbers count segments (one application packet per segment),
matching the paper's packets-per-second accounting.  The sender keeps a
bounded application send buffer; when the buffer is full the writer
"blocks" — for DMP-streaming this is the signal that a path has no spare
capacity, so the next packet goes to whichever path unblocks first.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.tcp.estimator import RttEstimator

ACK_SIZE_BYTES = 40


class RenoSender:
    """One direction of a TCP Reno connection (data out, ACKs in).

    Parameters
    ----------
    sim, node:
        Simulation kernel and the node the sender lives on.
    dst_name, dst_port:
        Receiver address.
    segment_bytes:
        Wire size of one data segment (the paper uses 1500 or 1448 B).
    send_buffer_pkts:
        Socket send-buffer size in segments.  It holds both
        sent-but-unacked and queued-unsent payloads; a full buffer means
        the writer is blocked.
    on_send_space:
        Callback invoked whenever buffer space frees up (ACK progress).
    """

    def __init__(self, sim: Simulator, node: Node, dst_name: str,
                 dst_port: int, segment_bytes: int = 1500,
                 send_buffer_pkts: int = 64,
                 init_cwnd: float = 2.0,
                 max_cwnd: float = 1e9,
                 min_rto: float = 0.2,
                 on_send_space: Optional[Callable[["RenoSender"], None]]
                 = None,
                 port: Optional[int] = None,
                 name: Optional[str] = None) -> None:
        self.sim = sim
        self.node = node
        self.dst_name = dst_name
        self.dst_port = dst_port
        self.segment_bytes = segment_bytes
        self.send_buffer_pkts = send_buffer_pkts
        self.on_send_space = on_send_space
        self.port = node.bind(self, port)
        self.name = name or f"{node.name}:{self.port}"

        # Instrumentation probe points (zero-cost unless subscribed).
        bus = sim.bus
        self._p_cwnd = bus.probe("tcp.cwnd")
        self._p_timeout = bus.probe("tcp.timeout")
        self._p_fast_rtx = bus.probe("tcp.fast_retransmit")
        self._p_rtx = bus.probe("tcp.retransmit")
        self._p_rtt = bus.probe("tcp.rtt_sample")
        self._p_sndbuf = bus.probe("tcp.send_buffer")

        # Congestion state.
        self.cwnd = float(init_cwnd)
        self.init_cwnd = float(init_cwnd)
        self.max_cwnd = max_cwnd
        self.ssthresh = float("inf")
        self.dup_acks = 0
        self.in_fast_recovery = False
        self.recover = -1  # highest segment sent when loss detected
        # Receiver-advertised window (flow control); None = unlimited,
        # the paper's ample-client-buffer assumption.
        self.peer_wnd: Optional[int] = None

        # Sequence state (in segments).
        self.snd_una = 0          # lowest unacknowledged
        self.snd_nxt = 0          # next new segment to transmit
        self.snd_max = 0          # highest segment ever transmitted + 1
        self._buffer: Deque[Any] = deque()   # payloads for snd_una..

        # Timers / RTT.
        self.estimator = RttEstimator(min_rto=min_rto)
        self._rto = sim.timer(self._on_timeout)
        self.backoff_exp = 0
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0

        # Statistics.
        self.segments_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.acked_segments = 0
        self.rto_history: List[Tuple[float, float]] = []
        self.closed = False

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def can_write(self) -> bool:
        """True while the send buffer has room for another payload."""
        return not self.closed and len(self._buffer) < self.send_buffer_pkts

    def free_space(self) -> int:
        """Number of payloads that can be written right now."""
        if self.closed:
            return 0
        return self.send_buffer_pkts - len(self._buffer)

    def write(self, payload: Any = None) -> bool:
        """Queue one application packet; False when the buffer is full."""
        if not self.can_write():
            return False
        self._buffer.append(payload)
        if self._p_sndbuf.active:
            self._p_sndbuf.emit(self.sim.now, self.name,
                                len(self._buffer))
        self._try_send()
        return True

    def close(self) -> None:
        """Stop accepting new application data (in-flight data drains)."""
        self.closed = True

    @property
    def buffered(self) -> int:
        """Payloads currently in the send buffer (sent + unsent)."""
        return len(self._buffer)

    @property
    def bytes_in_flight(self) -> int:
        return (self.snd_nxt - self.snd_una) * self.segment_bytes

    @property
    def outstanding(self) -> int:
        """Segments sent but not yet cumulatively acknowledged."""
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _window(self) -> int:
        window = min(self.cwnd, self.max_cwnd)
        if self.peer_wnd is not None:
            # Zero-window handling is simplified to a floor of one
            # segment per window (a data-bearing persist probe), which
            # avoids deadlock without a separate persist timer.
            window = min(window, self.peer_wnd)
        return max(1, int(window))

    def _payload_for(self, seq: int) -> Any:
        return self._buffer[seq - self.snd_una]

    def _try_send(self) -> None:
        limit = self.snd_una + min(self._window(), len(self._buffer))
        while self.snd_nxt < limit:
            # After a timeout's go-back-N rewind, segments below
            # snd_max go out again and count as retransmissions.
            self._transmit(self.snd_nxt,
                           retransmit=self.snd_nxt < self.snd_max)
            self.snd_nxt += 1
            if self.snd_nxt > self.snd_max:
                self.snd_max = self.snd_nxt
        if self.outstanding > 0 and self._rto.deadline is None:
            self._arm_rto()

    def _transmit(self, seq: int, retransmit: bool) -> None:
        pool = self.sim.pool
        if pool is not None:
            packet = pool.acquire(
                src=self.node.name, dst=self.dst_name,
                sport=self.port, dport=self.dst_port,
                size=self.segment_bytes, seq=seq,
                payload=self._payload_for(seq),
                created_at=self.sim.now)
        else:
            packet = Packet(
                src=self.node.name, dst=self.dst_name, sport=self.port,
                dport=self.dst_port, size=self.segment_bytes, seq=seq,
                payload=self._payload_for(seq), created_at=self.sim.now)
        packet.is_retransmit = retransmit
        self.segments_sent += 1
        if retransmit:
            self.retransmits += 1
            if self._p_rtx.active:
                self._p_rtx.emit(self.sim.now, self.name, seq)
        elif self._timed_seq is None:
            # Karn's rule: time only segments sent exactly once.
            self._timed_seq = seq
            self._timed_at = self.sim.now
        self.node.send(packet)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        if not packet.is_ack:
            return
        if packet.wnd >= 0:
            self.peer_wnd = packet.wnd
        ack = packet.ack
        if ack > self.snd_una:
            self._handle_new_ack(ack)
        elif ack == self.snd_una and self.outstanding > 0:
            self._handle_dup_ack()

    def _handle_new_ack(self, ack: int) -> None:
        acked = ack - self.snd_una
        self.acked_segments += acked

        # RTT sampling (Karn's rule: sample only if never retransmitted
        # since the timing started; timeouts clear _timed_seq).
        if self._timed_seq is not None and ack > self._timed_seq:
            sample = self.sim.now - self._timed_at
            self.estimator.observe(sample)
            self._timed_seq = None
            if self._p_rtt.active:
                self._p_rtt.emit(self.sim.now, self.name, sample)
        self.backoff_exp = 0

        for _ in range(min(acked, len(self._buffer))):
            self._buffer.popleft()
        self.snd_una = ack
        if self.snd_nxt < self.snd_una:
            self.snd_nxt = self.snd_una
        if self._p_sndbuf.active:
            self._p_sndbuf.emit(self.sim.now, self.name,
                                len(self._buffer))

        if self.in_fast_recovery:
            self._new_ack_in_recovery(ack, acked)
        else:
            self.dup_acks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd = min(self.cwnd + 1.0, self.max_cwnd)
            else:
                self.cwnd = min(self.cwnd + 1.0 / self.cwnd,
                                self.max_cwnd)
        self._emit_cwnd()

        if self.outstanding > 0:
            self._arm_rto()
        else:
            self._rto.clear()

        self._try_send()
        if self.on_send_space is not None and self.free_space() > 0:
            self.on_send_space(self)

    def _new_ack_in_recovery(self, ack: int, acked: int) -> None:
        """Classic Reno: leave fast recovery on the first new ACK."""
        self.cwnd = self.ssthresh
        self.in_fast_recovery = False
        self.dup_acks = 0

    def _handle_dup_ack(self) -> None:
        self.dup_acks += 1
        if self.in_fast_recovery:
            # Window inflation for every additional duplicate ACK.
            self.cwnd = min(self.cwnd + 1.0, self.max_cwnd)
            self._emit_cwnd()
            self._try_send()
            return
        if self.dup_acks == 3:
            self.fast_retransmits += 1
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.cwnd = self.ssthresh + 3.0
            self.in_fast_recovery = True
            self.recover = self.snd_nxt
            self._timed_seq = None
            if self._p_fast_rtx.active:
                self._p_fast_rtx.emit(self.sim.now, self.name,
                                      self.snd_una)
            self._emit_cwnd()
            self._transmit(self.snd_una, retransmit=True)
            self._arm_rto()

    def _emit_cwnd(self) -> None:
        if self._p_cwnd.active:
            self._p_cwnd.emit(self.sim.now, self.name, self.cwnd,
                              self.ssthresh)

    # ------------------------------------------------------------------
    # Retransmission timer
    # ------------------------------------------------------------------
    def _current_rto(self) -> float:
        return self.estimator.backed_off(self.backoff_exp)

    def _arm_rto(self) -> None:
        """(Re)start the retransmission timer at the current RTO."""
        self._rto.set(self.sim.now + self._current_rto())

    def _on_timeout(self) -> None:
        if self.outstanding == 0:
            return
        self.timeouts += 1
        expired_rto = self._current_rto()
        self.rto_history.append((self.sim.now, expired_rto))
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.in_fast_recovery = False
        self.backoff_exp = min(self.backoff_exp + 1, 6)
        self._timed_seq = None
        if self._p_timeout.active:
            self._p_timeout.emit(self.sim.now, self.name, expired_rto,
                                 self.backoff_exp)
        self._emit_cwnd()
        # Go-back-N: rewind and retransmit the first unacked segment.
        self.snd_nxt = self.snd_una + 1
        self._transmit(self.snd_una, retransmit=True)
        self._arm_rto()

    # ------------------------------------------------------------------
    @property
    def loss_estimate(self) -> float:
        """Fraction of transmissions that were retransmitted.

        This is the tcpdump-style estimate the paper's Section 6 uses
        for the model's per-path loss probability p.
        """
        if self.segments_sent == 0:
            return 0.0
        return self.retransmits / self.segments_sent
