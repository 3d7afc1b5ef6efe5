"""tcpdump-style packet tracing.

The paper estimates per-flow loss rate, RTT and timeout value from
tcpdump traces (Section 6).  :class:`PacketTrace` captures per-link
events in the same spirit: :mod:`repro.experiments.measure` reads the
video flows' loss correlation (Table 3) from it, and the test suite
checks the sender counters that feed the model against estimates
from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Set, Tuple

from repro.sim.packet import Packet

#: ``(src, sport, dst, dport)`` of one unidirectional flow.
FlowKey = Tuple[str, int, str, int]


@dataclass(frozen=True)
class TraceRecord:
    """One trace line: an event observed on a link.

    ``event`` is one of ``enqueue``, ``send``, ``recv`` or ``drop``.
    """

    time: float
    event: str
    link: str
    uid: int
    src: str
    dst: str
    sport: int
    dport: int
    seq: int
    ack: int
    size: int
    is_ack: bool
    is_retransmit: bool

    def flow_key(self) -> FlowKey:
        return (self.src, self.sport, self.dst, self.dport)


class PacketTrace:
    """In-memory packet trace with optional event filtering.

    Passing a ``predicate`` keeps memory bounded in long runs: only
    records matching it are stored (e.g. only the video flows).
    """

    def __init__(self,
                 predicate: Optional[Callable[[TraceRecord], bool]] = None,
                 events: Optional[Set[str]] = None) -> None:
        self.records: List[TraceRecord] = []
        self._predicate = predicate
        self._events = events

    def record(self, time: float, event: str, link: str,
               packet: Packet) -> None:
        if self._events is not None and event not in self._events:
            return
        rec = TraceRecord(
            time=time, event=event, link=link, uid=packet.uid,
            src=packet.src, dst=packet.dst, sport=packet.sport,
            dport=packet.dport, seq=packet.seq, ack=packet.ack,
            size=packet.size, is_ack=packet.is_ack,
            is_retransmit=packet.is_retransmit)
        if self._predicate is not None and not self._predicate(rec):
            return
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def filter(self, **field_values: Any) -> List[TraceRecord]:
        """Records whose fields equal all the given values."""
        out: List[TraceRecord] = []
        for rec in self.records:
            if all(getattr(rec, key) == value
                   for key, value in field_values.items()):
                out.append(rec)
        return out

    def flows(self) -> Set[FlowKey]:
        """Distinct unidirectional flow keys seen in the trace."""
        return {rec.flow_key() for rec in self.records}
