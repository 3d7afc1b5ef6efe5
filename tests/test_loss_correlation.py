"""Tests for the loss-correlation estimator (Section 5.3's claim)."""

import pytest

from repro.experiments.measure import loss_correlation
from repro.sim.packet import Packet
from repro.sim.trace import PacketTrace

FLOW_A = ("server", 1, "client", 10)
FLOW_B = ("server", 2, "client", 20)


def make_trace(drops_a, drops_b, horizon=20.0):
    trace = PacketTrace()
    for t in drops_a:
        trace.record(t, "drop", "l",
                     Packet("server", "client", 1, 10, 1500))
    for t in drops_b:
        trace.record(t, "drop", "l",
                     Packet("server", "client", 2, 20, 1500))
    # Horizon marker (a harmless recv record).
    trace.record(horizon, "recv", "l",
                 Packet("x", "y", 9, 9, 40))
    return trace


def test_identical_loss_times_fully_correlated():
    times = [1.2, 5.5, 9.9, 14.3]
    trace = make_trace(times, times)
    corr = loss_correlation(trace, FLOW_A, FLOW_B, window_s=1.0)
    assert corr == pytest.approx(1.0)


def test_disjoint_loss_windows_negatively_or_un_correlated():
    trace = make_trace([0.5, 2.5, 4.5, 6.5], [1.5, 3.5, 5.5, 7.5])
    corr = loss_correlation(trace, FLOW_A, FLOW_B, window_s=1.0)
    assert corr < 0.1


def test_no_losses_gives_zero():
    trace = make_trace([], [1.0, 2.0])
    assert loss_correlation(trace, FLOW_A, FLOW_B) == 0.0


def test_window_validation():
    trace = make_trace([1.0], [2.0])
    with pytest.raises(ValueError):
        loss_correlation(trace, FLOW_A, FLOW_B, window_s=0)


def test_empty_trace():
    assert loss_correlation(PacketTrace(), FLOW_A, FLOW_B) == 0.0


def test_shared_bottleneck_video_flows_weakly_correlated():
    """The Section-5.3 claim on our substrate: with background traffic
    interleaved, the two video flows' loss processes on a SHARED
    bottleneck are only weakly correlated."""
    from repro import BottleneckSpec, MultiSessionCampaign, PathConfig

    spec = BottleneckSpec(bandwidth_bps=1.2e6, delay_s=0.01,
                          buffer_pkts=25)
    paths = [PathConfig(bottleneck=spec, n_ftp=2, n_http=5)] * 2
    session = MultiSessionCampaign(mu=50, duration_s=150, paths=paths,
                                   shared_bottleneck=True, seed=9)
    trace = session.attach_packet_trace(
        PacketTrace(events={"drop", "recv"}))
    session.run()
    flows = []
    for conn in session.assemblies[0].connections:
        sender = conn.sender
        flows.append((sender.node.name, sender.port,
                      sender.dst_name, sender.dst_port))
    corr = loss_correlation(trace, flows[0], flows[1], window_s=1.0)
    assert -0.3 < corr < 0.6
