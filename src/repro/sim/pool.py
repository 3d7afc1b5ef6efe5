"""Packet recycling for campaign-scale runs.

A 200-session campaign pushes tens of millions of wire packets through
the simulator; allocating (and garbage-collecting) a fresh
:class:`~repro.sim.packet.Packet` object per segment is the dominant
allocator load at that scale.  :class:`PacketPool` removes it with a
free-list of preallocated packets: acquisition pops a recycled
instance and rewrites its header fields in place, release pushes the
instance back once the network is done with it.

Ownership contract (who releases):

* a packet dropped by a link buffer is released by the link;
* a packet delivered to an agent is released by the node *after*
  ``handle_packet`` returns — agents must copy out anything they keep
  (the TCP receiver keeps only ``payload``, the sender only header
  fields, so both are safe);
* dead-lettered packets are released by the node.

Every :class:`~repro.core.campaign.MultiSessionCampaign` installs a
pool; a bare :class:`~repro.sim.engine.Simulator` has none
(``Simulator.pool`` defaults to ``None``).  A sink must not keep a
raw packet reference across events: every bundled sink copies the
fields it keeps at emission time (:class:`~repro.obs.sinks.TraceSink`
and the flight recorder project them;
:class:`~repro.obs.sinks.RecordingSink` keeps a
:meth:`~repro.sim.packet.Packet.snapshot`).  Each acquisition stamps a
fresh ``uid`` so traces and dedup logic never see two live packets
(or one packet's two lives) under one identity.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.sim.packet import Packet, fresh_uid


class PacketPool:
    """Free-list recycler for :class:`Packet` instances.

    Parameters
    ----------
    prealloc:
        Packets to allocate up front.  The pool grows on demand, so
        this only moves allocation cost to construction time.
    """

    def __init__(self, prealloc: int = 0) -> None:
        if prealloc < 0:
            raise ValueError("prealloc must be >= 0")
        self._free: List[Packet] = []
        self.allocated = 0
        self.acquired = 0
        self.released = 0
        self.recycled = 0
        for _ in range(prealloc):
            self._free.append(self._new())

    def _new(self) -> Packet:
        self.allocated += 1
        return Packet("", "", 0, 0, 0)

    # ------------------------------------------------------------------
    def acquire(self, src: str, dst: str, sport: int, dport: int,
                size: int, seq: int = 0, ack: int = -1,
                wnd: int = -1,
                flags: Optional[Iterable[str]] = None,
                payload: Any = None,
                created_at: float = 0.0) -> Packet:
        """A packet with the given header, recycled when possible.

        Mirrors the :class:`Packet` constructor signature so emitters
        can branch between the two with identical arguments.
        """
        self.acquired += 1
        if self._free:
            self.recycled += 1
            packet = self._free.pop()
            packet.pooled = False
        else:
            packet = self._new()
        packet.uid = fresh_uid()
        packet.src = src
        packet.dst = dst
        packet.sport = sport
        packet.dport = dport
        packet.size = size
        packet.seq = seq
        packet.ack = ack
        packet.wnd = wnd
        packet.flags.clear()
        if flags is not None:
            packet.flags.update(flags)
        packet.payload = payload
        packet.created_at = created_at
        packet.hops = 0
        packet.is_retransmit = False
        return packet

    def release(self, packet: Packet) -> None:
        """Return a packet to the free list.

        Safe for packets that were constructed directly (they simply
        join the pool); double release is a hard error because the
        packet may already be live again under a new identity.
        """
        if packet.pooled:
            raise RuntimeError(
                f"double release of pooled packet uid={packet.uid}")
        packet.pooled = True
        packet.payload = None  # drop the app-payload reference now
        self.released += 1
        self._free.append(packet)

    # ------------------------------------------------------------------
    @property
    def free(self) -> int:
        """Packets currently sitting in the free list."""
        return len(self._free)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PacketPool free={self.free} "
                f"allocated={self.allocated} "
                f"recycled={self.recycled}>")
