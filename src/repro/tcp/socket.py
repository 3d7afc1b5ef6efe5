"""Connection-level convenience wrapper pairing a sender and a receiver."""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Type

from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.tcp.newreno import NewRenoSender
from repro.tcp.receiver import TcpReceiver
from repro.tcp.reno import RenoSender
from repro.tcp.sack import SackSender

SENDER_VARIANTS: Dict[str, Type[RenoSender]] = {
    "reno": RenoSender,
    "newreno": NewRenoSender,
    "sack": SackSender,
}


class TcpConnection:
    """A unidirectional TCP Reno connection between two nodes.

    The connection wires a :class:`RenoSender` on ``src_node`` to a
    :class:`TcpReceiver` on ``dst_node`` (handshake elided; the study
    concerns steady-state behaviour).  It exposes the sender's bounded
    send buffer — the blocking primitive DMP-streaming schedules on.
    """

    def __init__(self, sim: Simulator, src_node: Node, dst_node: Node,
                 segment_bytes: int = 1500,
                 send_buffer_pkts: int = 64,
                 min_rto: float = 0.2,
                 delack_interval: float = 0.1,
                 on_deliver: Optional[
                     Callable[[Any, int, float], None]] = None,
                 on_send_space: Optional[
                     Callable[["TcpConnection"], None]] = None,
                 window_provider: Optional[Callable[[], int]] = None,
                 name: Optional[str] = None,
                 variant: str = "reno") -> None:
        try:
            sender_cls = SENDER_VARIANTS[variant]
        except KeyError:
            raise ValueError(
                f"unknown TCP variant {variant!r}; choose from "
                f"{sorted(SENDER_VARIANTS)}") from None
        self.sim = sim
        self.variant = variant
        self.name = name or f"{src_node.name}->{dst_node.name}"
        self.receiver = TcpReceiver(
            sim, dst_node, on_deliver=on_deliver,
            delack_interval=delack_interval,
            window_provider=window_provider,
            sack_enabled=(variant == "sack"))
        self._user_on_send_space = on_send_space
        self.sender = sender_cls(
            sim, src_node, dst_name=dst_node.name,
            dst_port=self.receiver.port, segment_bytes=segment_bytes,
            send_buffer_pkts=send_buffer_pkts, min_rto=min_rto,
            on_send_space=self._notify_space, name=self.name)

    def _notify_space(self, _sender: RenoSender) -> None:
        if self._user_on_send_space is not None:
            self._user_on_send_space(self)

    # ------------------------------------------------------------------
    # Writer-side API (the interface DMP-streaming uses)
    # ------------------------------------------------------------------
    def can_write(self) -> bool:
        return self.sender.can_write()

    def write(self, payload: Any = None) -> bool:
        return self.sender.write(payload)

    def close(self) -> None:
        self.sender.close()

    # ------------------------------------------------------------------
    # Measurement helpers (tcpdump-style per-flow statistics)
    # ------------------------------------------------------------------
    @property
    def loss_estimate(self) -> float:
        return self.sender.loss_estimate

    @property
    def loss_event_estimate(self) -> float:
        """Loss events (TD or timeout) per segment sent.

        This is the ``p`` of Padhye-style models — a loss event kills
        the rest of the round, so several dropped segments in one
        window count once.  Use this estimate when feeding measured
        parameters into :class:`repro.model.DmpModel`.
        """
        sender = self.sender
        if sender.segments_sent == 0:
            return 0.0
        events = sender.fast_retransmits + sender.timeouts
        return events / sender.segments_sent

    @property
    def mean_rtt(self) -> float:
        return self.sender.estimator.mean_rtt

    @property
    def mean_rto(self) -> float:
        """Average first-retransmission timer over the connection."""
        history = self.sender.rto_history
        if history:
            return sum(rto for _, rto in history) / len(history)
        return self.sender.estimator.rto

    @property
    def timeout_ratio(self) -> float:
        """T_O = RTO / RTT, the paper's normalised timeout value."""
        rtt = self.mean_rtt
        return self.mean_rto / rtt if rtt > 0 else 0.0

    @property
    def delivered(self) -> int:
        return self.receiver.delivered

    def stats(self) -> Dict[str, Any]:
        """Flow summary used by the experiment harness."""
        sender = self.sender
        return {
            "name": self.name,
            "segments_sent": sender.segments_sent,
            "retransmits": sender.retransmits,
            "timeouts": sender.timeouts,
            "fast_retransmits": sender.fast_retransmits,
            "delivered": self.delivered,
            "loss_estimate": self.loss_estimate,
            "loss_event_estimate": self.loss_event_estimate,
            "mean_rtt": self.mean_rtt,
            "mean_rto": self.mean_rto,
            "timeout_ratio": self.timeout_ratio,
        }
