"""Tests for tcpdump-style trace estimation (Section 6 methodology)."""

import pytest

from repro import BottleneckSpec, MultiSessionCampaign, PathConfig
from repro.sim.trace import PacketTrace
from tests.trace_estimator import data_records, estimate_flow


from functools import lru_cache


@lru_cache(maxsize=4)
def traced_session(seed=3):
    spec = BottleneckSpec(bandwidth_bps=8e5, delay_s=0.01,
                          buffer_pkts=15)
    paths = [PathConfig(bottleneck=spec, n_ftp=2, n_http=3)] * 2
    campaign = MultiSessionCampaign(mu=40, duration_s=120, paths=paths,
                                    seed=seed)
    trace = campaign.attach_packet_trace()
    (result,) = campaign.run().sessions
    return campaign.assemblies[0], result, trace


def video_flow_key(session, idx):
    sender = session.connections[idx].sender
    return (sender.node.name, sender.port, sender.dst_name,
            sender.dst_port)


def test_estimates_match_sender_internals():
    session, result, trace = traced_session()
    for idx in range(2):
        flow = video_flow_key(session, idx)
        estimate = estimate_flow(trace, flow)
        stats = session.connections[idx].stats()

        # Retransmission fraction: trace view vs sender view.
        assert estimate.retransmission_rate == pytest.approx(
            stats["loss_estimate"], abs=0.02)
        # Loss-event rate is by construction <= retransmission rate.
        assert estimate.loss_rate <= estimate.retransmission_rate \
            + 1e-9
        # RTT within a factor band: the trace sees only the bottleneck
        # crossing, not the access links, so allow generous slack.
        assert estimate.mean_rtt == pytest.approx(
            stats["mean_rtt"], rel=0.4)


def test_estimate_counts_loss_burst_as_one_event():
    session, result, trace = traced_session(seed=3)
    flow = video_flow_key(session, 0)
    estimate = estimate_flow(trace, flow)
    assert estimate.segments > 100
    assert 0.0 <= estimate.loss_rate < 0.2


def test_timeout_ratio_physical_range():
    session, result, trace = traced_session(seed=3)
    for idx in range(2):
        estimate = estimate_flow(trace, video_flow_key(session, idx))
        if estimate.timeout_ratio:
            assert 1.0 <= estimate.timeout_ratio < 30.0


def test_data_records_sorted_and_filtered():
    session, result, trace = traced_session(seed=11)
    flow = video_flow_key(session, 0)
    records = data_records(trace, flow)
    times = [rec.time for rec in records]
    assert times == sorted(times)
    assert all(not rec.is_ack for rec in records)
    assert all(rec.flow_key() == flow for rec in records)


def test_estimate_all_flows_finds_background_too():
    session, result, trace = traced_session(seed=11)
    segments = {}
    for rec in trace:
        if not rec.is_ack and rec.event in ("enqueue", "drop"):
            segments[rec.flow_key()] = segments.get(rec.flow_key(), 0) + 1
    estimates = [estimate_flow(trace, flow)
                 for flow, count in sorted(segments.items())
                 if count >= 100]
    # 2 video flows + 4 FTP flows at least.
    assert len(estimates) >= 6


def test_unknown_flow_rejected():
    trace = PacketTrace()
    with pytest.raises(ValueError):
        estimate_flow(trace, ("x", 1, "y", 2))
