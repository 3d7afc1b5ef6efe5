"""Network packet representation shared by every layer of the simulator."""

from __future__ import annotations

import itertools
from typing import Any, Optional, Set, Tuple

_uid_counter = itertools.count()


def fresh_uid() -> int:
    """Next globally unique packet id.

    Shared by the :class:`Packet` constructor and the recycling
    :class:`~repro.sim.pool.PacketPool`: a recycled instance gets a
    *fresh* uid per acquisition, so a uid always names one logical
    packet even when the carrying object lives many lives.
    """
    return next(_uid_counter)


class Packet:
    """A packet travelling through the simulated network.

    The simulator is packet-oriented: a TCP segment, an ACK and an HTTP
    response chunk are all :class:`Packet` instances.  Addressing uses
    ``(node name, port)`` pairs, mirroring a minimal IP/TCP header.

    Attributes
    ----------
    src, dst:
        Names of the source and destination :class:`~repro.sim.node.Node`.
    sport, dport:
        Integer ports used to demultiplex to agents on the destination.
    size:
        Wire size in bytes (headers included); drives serialisation time.
    seq, ack:
        Segment-level sequence/cumulative-ACK numbers (in packets, since
        the study measures everything in packets).
    wnd:
        Receiver-advertised window in packets (-1 = unlimited; only
        meaningful on ACKs).
    flags:
        Set of flag strings, e.g. ``{"ACK"}`` or ``{"FIN"}``.
    payload:
        Opaque application payload (for video flows, the packet number).
    """

    __slots__ = ("uid", "src", "dst", "sport", "dport", "size", "seq",
                 "ack", "wnd", "flags", "payload", "created_at",
                 "hops", "is_retransmit", "pooled")

    def __init__(self, src: str, dst: str, sport: int, dport: int,
                 size: int, seq: int = 0, ack: int = -1,
                 wnd: int = -1,
                 flags: Optional[Set[str]] = None,
                 payload: Any = None,
                 created_at: float = 0.0) -> None:
        self.uid = next(_uid_counter)
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.size = size
        self.seq = seq
        self.ack = ack
        self.wnd = wnd
        self.flags: Set[str] = flags if flags is not None else set()
        self.payload = payload
        self.created_at = created_at
        self.hops = 0
        self.is_retransmit = False
        # True only while the packet sits in a PacketPool free list;
        # guards against double release (see repro.sim.pool).
        self.pooled = False

    @property
    def is_ack(self) -> bool:
        return "ACK" in self.flags

    def snapshot(self) -> "Packet":
        """A detached copy (with its own ``flags`` set): recycling this
        instance through a :class:`~repro.sim.pool.PacketPool` cannot
        rewrite it."""
        copy = Packet.__new__(Packet)
        for name in Packet.__slots__:
            setattr(copy, name, getattr(self, name))
        copy.flags = set(self.flags)
        return copy

    def flow_key(self) -> Tuple[str, int, str, int]:
        """Identify the unidirectional flow this packet belongs to."""
        return (self.src, self.sport, self.dst, self.dport)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        return (f"<Packet #{self.uid} {kind} {self.src}:{self.sport}->"
                f"{self.dst}:{self.dport} seq={self.seq} ack={self.ack} "
                f"{self.size}B>")
