"""TCP NewReno sender (RFC 3782-style partial-ACK recovery).

The paper's video streams use Reno (Section 5.1); NewReno is provided
as an extension for the TCP-variant ablation.  The difference is
confined to fast recovery: a *partial* ACK (one that advances
``snd_una`` but does not reach the ``recover`` mark recorded when the
loss was detected) immediately retransmits the next missing segment
and stays in fast recovery, so a burst of n losses costs one window
halving and roughly n RTTs rather than a timeout.
"""

from __future__ import annotations

from repro.tcp.reno import RenoSender


class NewRenoSender(RenoSender):
    """Reno with NewReno's fast-recovery partial-ACK handling."""

    def _new_ack_in_recovery(self, ack: int, acked: int) -> None:
        if ack > self.recover:
            # Full ACK: every segment outstanding when the loss was
            # detected is now covered; deflate and leave recovery.
            self.cwnd = self.ssthresh
            self.in_fast_recovery = False
            self.dup_acks = 0
            return
        # Partial ACK: the next hole starts exactly at the new
        # snd_una.  Retransmit it, deflate the window by the amount
        # acknowledged (plus one for the retransmission), stay in
        # recovery.
        self.cwnd = max(self.ssthresh,
                        self.cwnd - acked + 1.0)
        if self._buffer:
            self._transmit(self.snd_una, retransmit=True)
        self._arm_rto()
