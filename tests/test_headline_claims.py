"""Capstone tests: the paper's headline claims, end to end.

Each test pins one sentence of the paper's abstract/conclusions to an
executable check at test-friendly scale.  These are the claims the
whole repository exists to reproduce; the benchmarks regenerate the
full tables/figures behind them.
"""

import pytest

from repro.experiments.sweep import (
    DelayQuestion,
    mu_for_ratio,
    required_startup_delays,
    rtt_for_ratio,
)
from repro.model.dmp_model import DmpModel
from repro.model.tcp_chain import FlowParams

# The paper's Fig-8 operating point.
P, TO, MU = 0.02, 4.0, 25.0


def test_claim_satisfactory_at_ratio_16_with_seconds_of_delay():
    """'performance is generally satisfactory when the aggregate
    achievable TCP throughput is 1.6 times the video bitrate, with a
    few seconds of startup delay' (abstract)."""
    rtt = rtt_for_ratio(P, TO, MU, 1.6)
    params = FlowParams(p=P, rtt=rtt, to_ratio=TO)
    (required,) = required_startup_delays(
        [DelayQuestion((params, params), MU)], threshold=1e-4,
        horizon_s=20000, seed=0)
    assert required is not None
    assert 4.0 <= required <= 20.0  # "around 10 seconds" +- MC jitter


def test_claim_diminishing_gain_beyond_14():
    """'the performance improves dramatically as sigma_a/mu increases
    from 1.2 to 1.4 and less dramatically afterwards' (Sec 7.1)."""
    tau = 8.0
    fracs = {}
    for ratio in (1.2, 1.4, 1.6):
        rtt = rtt_for_ratio(P, TO, MU, ratio)
        params = FlowParams(p=P, rtt=rtt, to_ratio=TO)
        model = DmpModel([params, params], mu=MU, tau=tau)
        fracs[ratio] = model.late_fraction_mc(
            horizon_s=15000, seed=1).late_fraction
    gain_12_14 = fracs[1.2] / max(fracs[1.4], 1e-12)
    assert fracs[1.2] > 0.01          # 1.2 is clearly unsatisfactory
    assert gain_12_14 > 5.0           # the dramatic first step
    assert fracs[1.6] <= fracs[1.4] + 1e-9


def test_claim_insensitive_to_path_heterogeneity():
    """'the performance of DMP-streaming is not sensitive to path
    heterogeneity' (Sec 7.2, Case 1, gamma = 2)."""
    po, ro = 0.02, 0.150
    homo = FlowParams(p=po, rtt=ro, to_ratio=TO)
    hetero = [FlowParams(p=po, rtt=2.0 * ro, to_ratio=TO),
              FlowParams(p=po, rtt=ro / 1.5, to_ratio=TO)]
    mu = mu_for_ratio(homo, 1.6)
    tau = 8.0
    f_homo = DmpModel([homo, homo], mu=mu, tau=tau).late_fraction_mc(
        horizon_s=15000, seed=2).late_fraction
    f_hetero = DmpModel(hetero, mu=mu, tau=tau).late_fraction_mc(
        horizon_s=15000, seed=2).late_fraction
    # Same order of magnitude (the paper's own comparison scale).
    if max(f_homo, f_hetero) > 1e-5:
        ratio = (f_hetero + 1e-7) / (f_homo + 1e-7)
        assert 0.05 < ratio < 20.0


def test_claim_dmp_beats_static():
    """'DMP-streaming significantly outperforms static-streaming'
    (Sec 7.4)."""
    params = FlowParams(p=0.02, rtt=0.2, to_ratio=TO)
    mu = mu_for_ratio(params, 1.6)
    tau = 10.0
    f_dmp = DmpModel([params, params], mu=mu,
                     tau=tau).late_fraction_mc(
        horizon_s=15000, seed=3).late_fraction
    # Static over two homogeneous paths: two mu/2 sub-videos.
    f_static = DmpModel([params], mu=mu / 2.0,
                        tau=tau).late_fraction_mc(
        horizon_s=15000, seed=3).late_fraction
    assert f_dmp <= f_static + 1e-9


def test_claim_two_half_paths_replace_one_fat_path():
    """Question (i) of the introduction: two paths with half the
    throughput each support the same video a single path supports at
    sigma/mu = 2."""
    single = FlowParams(p=0.02, rtt=0.1, to_ratio=2.0)
    sigma = DmpModel([single], mu=1, tau=1).aggregate_throughput()
    mu = sigma / 2.0  # the single-path rule of [31]
    half = single.scaled_rtt(single.rtt * 2.0)
    model = DmpModel([half, half], mu=mu, tau=10.0)
    assert model.throughput_ratio == pytest.approx(2.0, rel=1e-6)
    f = model.late_fraction_mc(horizon_s=20000, seed=4).late_fraction
    assert f < 1e-4


def test_claim_out_of_order_negligible_in_simulation():
    """'out-of-order packets only have a negligible effect on the
    fraction of late packets' (Sec 4.1) — checked on a live run."""
    from repro import BottleneckSpec, MultiSessionCampaign, PathConfig
    spec = BottleneckSpec(bandwidth_bps=1.2e6, delay_s=0.01,
                          buffer_pkts=30)
    paths = [PathConfig(bottleneck=spec, n_ftp=1, n_http=4)] * 2
    (result,) = MultiSessionCampaign(mu=50, duration_s=120, paths=paths,
                                     seed=5).run().sessions
    for tau in (2.0, 4.0):
        metrics = result.metrics(tau)
        playback = metrics.late_fraction
        arrival = metrics.arrival_order_late_fraction
        assert abs(playback - arrival) <= max(0.3 * playback, 5e-3)
