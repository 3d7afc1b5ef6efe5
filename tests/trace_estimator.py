"""tcpdump-style per-flow estimation of (p, R, T_O) from packet traces.

A test reference, not part of the pipeline: Section 6 of the paper
estimates each video flow's loss rate, RTT and timeout value from
tcpdump captures, while the reproduction feeds the model the senders'
own counters.  This estimator reads the same quantities from a
:class:`repro.sim.trace.PacketTrace` captured on the bottleneck links,
without peeking at TCP-internal state, so the tests can cross-check
the counters against what a trace shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.trace import PacketTrace, TraceRecord


@dataclass(frozen=True)
class FlowEstimate:
    """Per-flow estimates in the units the paper reports."""

    flow: tuple
    loss_rate: float           # loss events per data segment sent
    retransmission_rate: float  # retransmitted segments per segment
    mean_rtt: float            # seconds
    timeout_ratio: float       # T_O = RTO / RTT (crude trace estimate)
    segments: int


def data_records(trace: PacketTrace, flow: tuple,
                 events: Tuple[str, ...] = ("send",)) \
        -> List[TraceRecord]:
    """Data-segment records of one flow, in time order."""
    records = [rec for rec in trace
               if not rec.is_ack and rec.flow_key() == flow
               and rec.event in events]
    records.sort(key=lambda rec: rec.time)
    return records


def estimate_flow(trace: PacketTrace, flow: tuple,
                  reverse_flow: Optional[tuple] = None) -> FlowEstimate:
    """Estimate (p, R, T_O) for one unidirectional data flow.

    * retransmissions: a sequence number observed more than once
      (counted over *offered* copies — enqueue and drop events — i.e.
      as if tcpdump ran upstream of the bottleneck; copies dropped at
      the bottleneck never appear downstream);
    * loss events: bursts of retransmissions separated by new data
      (several retransmitted segments between two advances of the
      maximum sequence count as one event — Padhye's loss indication);
    * RTT: time between a data segment *arriving at* the forward
      bottleneck queue and the first covering ACK leaving the reverse
      bottleneck — this includes the (dominant) bottleneck queueing
      delay, unlike an egress-to-egress match;
    * T_O: gap before each retransmission of the *same* segment,
      normalised by the RTT (gaps below 1 RTT are dup-ACK recoveries
      and excluded).
    """
    sends = data_records(trace, flow, ("enqueue", "drop"))
    if not sends:
        raise ValueError(f"flow {flow} has no data records in trace")

    seen: Dict[int, float] = {}
    retransmissions = 0
    loss_events = 0
    max_seq = -1
    in_event = False
    rto_gaps: List[float] = []
    for rec in sends:
        if rec.seq in seen:
            retransmissions += 1
            if not in_event:
                loss_events += 1
                in_event = True
            rto_gaps.append(rec.time - seen[rec.seq])
        elif rec.seq > max_seq:
            max_seq = rec.seq
            in_event = False
        seen[rec.seq] = rec.time

    segments = len(sends)
    loss_rate = loss_events / segments
    retransmission_rate = retransmissions / segments

    offered = data_records(trace, flow, ("enqueue",))
    mean_rtt = _estimate_rtt(trace, flow, reverse_flow, offered)

    timeout_gaps = [gap for gap in rto_gaps if gap > mean_rtt] \
        if mean_rtt > 0 else []
    if timeout_gaps and mean_rtt > 0:
        timeout_gaps.sort()
        # Robust central estimate: the median retransmission gap.
        to_ratio = timeout_gaps[len(timeout_gaps) // 2] / mean_rtt
    else:
        to_ratio = 0.0

    return FlowEstimate(
        flow=flow, loss_rate=loss_rate,
        retransmission_rate=retransmission_rate, mean_rtt=mean_rtt,
        timeout_ratio=to_ratio, segments=segments)


def _estimate_rtt(trace: PacketTrace, flow: tuple,
                  reverse_flow: Optional[tuple],
                  sends: List[TraceRecord]) -> float:
    """Match data 'send' records with covering-ACK records."""
    if reverse_flow is None:
        src, sport, dst, dport = flow
        reverse_flow = (dst, dport, src, sport)
    acks = [rec for rec in trace
            if rec.is_ack and rec.flow_key() == reverse_flow
            and rec.event == "recv"]
    acks.sort(key=lambda rec: rec.time)
    if not acks:
        return 0.0

    samples: List[float] = []
    ack_idx = 0
    sent_once = {}
    retransmitted = set()
    for rec in sends:
        if rec.seq in sent_once:
            retransmitted.add(rec.seq)
        else:
            sent_once[rec.seq] = rec.time
    # Karn's rule: only match segments transmitted exactly once.
    for seq, sent_at in sorted(sent_once.items()):
        if seq in retransmitted:
            continue
        while ack_idx < len(acks) and (
                acks[ack_idx].ack <= seq
                or acks[ack_idx].time < sent_at):
            ack_idx += 1
        if ack_idx == len(acks):
            break
        samples.append(acks[ack_idx].time - sent_at)
    if not samples:
        return 0.0
    return sum(samples) / len(samples)
