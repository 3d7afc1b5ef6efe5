"""TCP SACK sender (RFC 2018/6675-style, simplified).

The receiver reports received out-of-order ranges on every ACK (see
:class:`repro.tcp.receiver.TcpReceiver` with ``sack_enabled``); the
sender keeps a scoreboard and, during recovery, retransmits exactly
the holes instead of guessing — at most one hole per incoming ACK
(a simplified pipe rule), falling back to new data when no hole is
outstanding.  One window halving per recovery episode, like NewReno,
but multi-loss recovery no longer costs one RTT per hole.
"""

from __future__ import annotations

from typing import Any, List, Set

from repro.sim.packet import Packet
from repro.tcp.reno import RenoSender


class SackSender(RenoSender):
    """Reno with selective-acknowledgement loss recovery."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._sacked: Set[int] = set()
        self._rtx_done: Set[int] = set()

    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        if packet.is_ack and isinstance(packet.payload, tuple):
            for block in packet.payload:
                try:
                    start, end = block
                except (TypeError, ValueError):
                    continue
                self._sacked.update(range(start, end))
        super().handle_packet(packet)

    # ------------------------------------------------------------------
    def _holes(self) -> List[int]:
        """Unsacked, unretransmitted segments below the highest SACK."""
        if not self._sacked:
            return []
        top = max(self._sacked)
        return [seq for seq in range(self.snd_una, top)
                if seq not in self._sacked
                and seq not in self._rtx_done]

    def _retransmit_next_hole(self) -> bool:
        for seq in self._holes():
            if seq - self.snd_una < len(self._buffer):
                self._transmit(seq, retransmit=True)
                self._rtx_done.add(seq)
                return True
        return False

    # ------------------------------------------------------------------
    def _handle_dup_ack(self) -> None:
        self.dup_acks += 1
        if self.in_fast_recovery:
            self.cwnd = min(self.cwnd + 1.0, self.max_cwnd)
            self._emit_cwnd()
            if not self._retransmit_next_hole():
                self._try_send()
            return
        if self.dup_acks == 3:
            self.fast_retransmits += 1
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.cwnd = self.ssthresh + 3.0
            self.in_fast_recovery = True
            self.recover = self.snd_nxt
            self._timed_seq = None
            self._rtx_done = set()
            if self._p_fast_rtx.active:
                self._p_fast_rtx.emit(self.sim.now, self.name,
                                      self.snd_una)
            self._emit_cwnd()
            if not self._retransmit_next_hole():
                self._transmit(self.snd_una, retransmit=True)
                self._rtx_done.add(self.snd_una)
            self._arm_rto()

    def _new_ack_in_recovery(self, ack: int, acked: int) -> None:
        if ack > self.recover:
            self.cwnd = self.ssthresh
            self.in_fast_recovery = False
            self.dup_acks = 0
            self._rtx_done.clear()
            return
        # Partial ACK: walk the scoreboard, stay in recovery.
        self.cwnd = max(self.ssthresh, self.cwnd - acked + 1.0)
        if not self._retransmit_next_hole():
            if self._buffer:
                self._transmit(self.snd_una, retransmit=True)
                self._rtx_done.add(self.snd_una)
        self._arm_rto()

    def _handle_new_ack(self, ack: int) -> None:
        # Drop scoreboard state below the new cumulative ACK.
        self._sacked = {seq for seq in self._sacked if seq >= ack}
        self._rtx_done = {seq for seq in self._rtx_done if seq >= ack}
        super()._handle_new_ack(ack)

    def _on_timeout(self) -> None:
        self._sacked.clear()
        self._rtx_done.clear()
        super()._on_timeout()
