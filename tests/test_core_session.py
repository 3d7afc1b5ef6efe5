"""Integration tests for end-to-end one-session runs on the paper's
topologies (``MultiSessionCampaign(paths=...)``)."""

import pytest

from repro import BottleneckSpec, MultiSessionCampaign, PathConfig

FAST = BottleneckSpec(bandwidth_bps=2e6, delay_s=0.005, buffer_pkts=40)
SLOW = BottleneckSpec(bandwidth_bps=6e5, delay_s=0.005, buffer_pkts=25)


def two_paths(spec=FAST, n_ftp=1, n_http=2):
    return [PathConfig(bottleneck=spec, n_ftp=n_ftp, n_http=n_http)] * 2


def run_session(**kwargs):
    """Run one session; its :class:`SessionSummary`."""
    (session,) = MultiSessionCampaign(**kwargs).run().sessions
    return session


def test_dmp_session_delivers_everything_when_uncongested():
    result = run_session(mu=40, duration_s=30,
                         paths=two_paths(n_ftp=0, n_http=0),
                         scheme="dmp", seed=1)
    assert len(result.arrivals) == result.total_packets == 1200
    assert result.late_fraction(2.0) == 0.0
    assert result.metrics(2.0).out_of_order_packets >= 0


def test_session_arrival_times_relative_to_video_start():
    result = run_session(mu=20, duration_s=10,
                         paths=two_paths(n_ftp=0, n_http=0),
                         scheme="dmp", seed=1, warmup_s=15.0)
    numbers = [n for n, _ in result.arrivals]
    times = [t for _, t in result.arrivals]
    assert min(numbers) == 0
    # Packet 0 is generated at video start; its (relative) arrival is
    # a network delay, well under a second on these links.
    assert 0 < min(times) < 1.0


def test_session_flow_stats_present():
    result = run_session(mu=40, duration_s=20,
                         paths=two_paths(), seed=2)
    assert len(result.flow_stats) == 2
    for stats in result.flow_stats:
        assert stats["segments_sent"] > 0
        assert stats["mean_rtt"] > 0


def test_session_congested_paths_produce_late_packets():
    paths = [PathConfig(bottleneck=SLOW, n_ftp=3, n_http=5)] * 2
    result = run_session(mu=60, duration_s=60, paths=paths,
                         seed=3)
    assert result.late_fraction(1.0) > 0
    # Monotone in tau.
    taus = [1.0, 2.0, 4.0, 8.0]
    fracs = [result.late_fraction(t) for t in taus]
    assert fracs == sorted(fracs, reverse=True)


def test_static_scheme_runs():
    session = MultiSessionCampaign(mu=40, duration_s=20,
                                   paths=two_paths(), scheme="static",
                                   seed=4)
    run = session.run()
    (result,) = run.sessions
    assert run.scheme == "static"
    assert len(result.arrivals) > 0
    assigned = session.assemblies[0].streamer.assigned_per_path
    assert abs(assigned[0] - assigned[1]) <= 1


def test_single_path_scheme():
    paths = [PathConfig(bottleneck=FAST, n_ftp=0, n_http=0)]
    result = run_session(mu=40, duration_s=10, paths=paths,
                         scheme="single", seed=5)
    assert len(result.arrivals) == result.total_packets
    assert result.path_shares == [1.0]


def test_single_path_requires_one_path():
    with pytest.raises(ValueError):
        MultiSessionCampaign(mu=10, duration_s=5, paths=two_paths(),
                             scheme="single")


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        MultiSessionCampaign(mu=10, duration_s=5, paths=two_paths(),
                             scheme="quantum")


def test_network_given_exactly_one_way():
    for kwargs in ({}, {"paths": two_paths(), "bottleneck": FAST},
                   {"paths": two_paths(), "n_sessions": 2},
                   {"paths": two_paths(), "n_ftp": 1},
                   {"paths": []},
                   {"bottleneck": FAST, "shared_bottleneck": True}):
        with pytest.raises(ValueError):
            MultiSessionCampaign(mu=10, duration_s=5, **kwargs)


def test_shared_bottleneck_session():
    paths = [PathConfig(bottleneck=FAST, n_ftp=1, n_http=2)] * 2
    session = MultiSessionCampaign(mu=40, duration_s=20, paths=paths,
                                   shared_bottleneck=True, seed=6)
    run = session.run()
    (result,) = run.sessions
    assert len(session.topology.bottlenecks) == 1
    assert 0.0 <= run.bottleneck_drop_fraction <= 1.0
    assert len(result.flow_stats) == 2
    assert len(result.arrivals) > 0


def test_sessions_reproducible_by_seed():
    kwargs = dict(mu=30, duration_s=15, paths=two_paths(), seed=42)
    first = run_session(**kwargs)
    second = run_session(**kwargs)
    assert first.arrivals == second.arrivals


def test_different_seeds_differ():
    base = dict(mu=30, duration_s=15, paths=two_paths())
    first = run_session(seed=1, **base)
    second = run_session(seed=2, **base)
    assert first.arrivals != second.arrivals
