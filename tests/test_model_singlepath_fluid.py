"""Tests for the single-path model (the K = 1 ``DmpModel``), static
evaluation and the fluid model."""

import numpy as np
import pytest

from repro.model.fluid import (
    OnOffPath,
    compare_dmp_vs_single,
    dmp_scenario,
    fluid_late_fraction,
    late_fraction_from_trace,
    single_path_scenario,
)
from repro.model.dmp_model import DmpModel
from repro.model.tcp_chain import FlowParams

TYPICAL = FlowParams(p=0.02, rtt=0.15, to_ratio=2.0)


# ------------------------------------------------------------------
# Single-path model ([31], K = 1)
# ------------------------------------------------------------------
def test_single_path_is_k1():
    model = DmpModel([TYPICAL], mu=20, tau=2.0)
    assert len(model.chains) == 1
    est = model.late_fraction_mc(horizon_s=5000, seed=1)
    assert 0.0 <= est.late_fraction <= 1.0


def test_single_path_needs_higher_ratio_than_dmp():
    """The paper's headline: two paths at ratio 1.6 are satisfactory
    where one path needs ratio ~2 — at equal ratio and tau, single-path
    is at least as bad as DMP on two half-rate paths."""
    sigma = DmpModel([TYPICAL], mu=1, tau=1).aggregate_throughput()
    ratio = 1.5
    mu = 2 * sigma / ratio
    tau = 6.0
    dmp = DmpModel([TYPICAL, TYPICAL], mu=mu, tau=tau)
    f_dmp = dmp.late_fraction_mc(horizon_s=30000, seed=2).late_fraction

    # Single path with the same aggregate throughput: one flow with
    # half the RTT (twice the throughput of one path).
    fast = TYPICAL.scaled_rtt(TYPICAL.rtt / 2.0)
    single = DmpModel([fast], mu=mu, tau=tau)
    assert single.aggregate_throughput() == pytest.approx(
        dmp.aggregate_throughput(), rel=1e-9)
    f_single = single.late_fraction_mc(horizon_s=30000,
                                       seed=2).late_fraction
    assert f_dmp <= f_single * 1.5 + 1e-6


# ------------------------------------------------------------------
# Static-streaming evaluation (Section 7.4 reduction)
# ------------------------------------------------------------------
def test_dmp_no_worse_than_static_homogeneous():
    """Fig. 11's message: DMP needs less buffer than static."""
    mu, tau = 30.0, 4.0
    dmp = DmpModel([TYPICAL, TYPICAL], mu=mu, tau=tau)
    f_dmp = dmp.late_fraction_mc(horizon_s=20000, seed=5).late_fraction
    # Static over two homogeneous paths: two mu/2 sub-videos.
    f_static = DmpModel([TYPICAL], mu=mu / 2.0,
                        tau=tau).late_fraction_mc(
        horizon_s=20000, seed=5).late_fraction
    assert f_dmp <= f_static + 1e-6


# ------------------------------------------------------------------
# Fluid model (Section 7.3)
# ------------------------------------------------------------------
def test_onoff_path_square_wave():
    path = OnOffPath(rate=10.0, period=10.0, on_time=5.0)
    assert path.rate_at(0.0) == 10.0
    assert path.rate_at(4.99) == 10.0
    assert path.rate_at(5.0) == 0.0
    assert path.rate_at(9.99) == 0.0
    assert path.rate_at(10.0) == 10.0


def test_onoff_phase_shift():
    path = OnOffPath(rate=10.0, period=10.0, on_time=5.0, phase=5.0)
    assert path.rate_at(0.0) == 0.0
    assert path.rate_at(5.0) == 10.0


def test_onoff_validation():
    with pytest.raises(ValueError):
        OnOffPath(rate=-1.0)
    with pytest.raises(ValueError):
        OnOffPath(rate=1.0, period=10.0, on_time=0.0)
    with pytest.raises(ValueError):
        OnOffPath(rate=1.0, period=10.0, on_time=11.0)


def test_fluid_no_late_when_overprovisioned():
    # Always-on path at 2*mu: nothing is ever late.
    paths = [OnOffPath(rate=20.0, period=10.0, on_time=10.0)]
    assert fluid_late_fraction(paths, mu=10.0, tau=1.0,
                               horizon=100.0) == 0.0


def test_fluid_all_late_when_starved():
    paths = [OnOffPath(rate=1.0, period=10.0, on_time=5.0)]
    frac = fluid_late_fraction(paths, mu=10.0, tau=1.0, horizon=100.0)
    assert frac > 0.8


def test_fluid_single_path_scenario_matches_paper_setup():
    paths = single_path_scenario(mu=10.0)
    assert len(paths) == 1
    assert paths[0].rate == 20.0


def test_dmp_scenario_rates_sum_to_2mu():
    paths = dmp_scenario(mu=10.0, x=4.0)
    assert paths[0].rate + paths[1].rate == pytest.approx(20.0)
    with pytest.raises(ValueError):
        dmp_scenario(mu=10.0, x=0.0)
    with pytest.raises(ValueError):
        dmp_scenario(mu=10.0, x=10.5)


def test_section_73_claim_dmp_not_worse():
    """DMP's average late fraction <= single-path for all x in (0, mu]
    with tau = 5 s and period 10 s (the paper's illustration)."""
    mu = 10.0
    rows = compare_dmp_vs_single(
        mu, xs=[2.0, 5.0, 8.0, 10.0], tau=5.0, horizon=200.0, dt=0.005)
    for row in rows:
        assert row["dmp_average"] <= row["single_path"] + 1e-6


def test_section_73_aligned_equals_single():
    """When both DMP paths are on/off in phase, the aggregate rate
    equals the single path's — identical late fraction."""
    mu = 10.0
    single = fluid_late_fraction(single_path_scenario(mu), mu, 5.0,
                                 horizon=200.0, dt=0.005)
    aligned = fluid_late_fraction(
        dmp_scenario(mu, x=6.0, aligned=True), mu, 5.0,
        horizon=200.0, dt=0.005)
    assert aligned == pytest.approx(single, abs=0.01)


def test_section_73_alternating_strictly_better():
    # tau = 5 s is knife-edge (the 5 s lead exactly covers the 5 s off
    # period, both schemes reach zero); at tau = 4 s the single path
    # glitches every cycle while alternating DMP with x = mu has a
    # constant aggregate rate and never does.
    mu = 10.0
    tau = 4.0
    single = fluid_late_fraction(single_path_scenario(mu), mu, tau,
                                 horizon=200.0, dt=0.005)
    alternating = fluid_late_fraction(
        dmp_scenario(mu, x=10.0, aligned=False), mu, tau,
        horizon=200.0, dt=0.005)
    assert single > 0.01
    assert alternating < single
    assert alternating == pytest.approx(0.0, abs=1e-9)


def test_fluid_validation():
    with pytest.raises(ValueError):
        fluid_late_fraction([OnOffPath(rate=1.0)], mu=0.0, tau=1.0)
    with pytest.raises(ValueError):
        fluid_late_fraction([OnOffPath(rate=1.0)], mu=1.0, tau=-1.0)


# ------------------------------------------------------------------
# Arrival-curve trace edge cases (late_fraction_from_trace)
# ------------------------------------------------------------------
def test_trace_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        late_fraction_from_trace([], mu=10.0, tau=1.0, dt=0.1)
    with pytest.raises(ValueError):
        late_fraction_from_trace(np.zeros((2, 2)), mu=10.0, tau=1.0,
                                 dt=0.1)
    with pytest.raises(ValueError):
        late_fraction_from_trace([1.0, -0.5], mu=10.0, tau=1.0,
                                 dt=0.1)
    with pytest.raises(ValueError):
        late_fraction_from_trace([1.0], mu=10.0, tau=1.0, dt=0.0)
    with pytest.raises(ValueError):
        late_fraction_from_trace([1.0], mu=10.0, tau=1.0, dt=0.1,
                                 video_duration_s=0.0)


def test_trace_tau_zero_with_adequate_rate():
    # Playback starts immediately; a path at 2*mu keeps arrivals
    # exactly at the live generation curve, so nothing is late even
    # with zero startup lead.
    frac = late_fraction_from_trace([20.0] * 100, mu=10.0, tau=0.0,
                                    dt=0.01)
    assert frac == 0.0


def test_trace_all_late_when_rate_is_zero():
    # Nothing ever arrives: every playing step is in deficit.
    frac = late_fraction_from_trace(np.zeros(50), mu=10.0, tau=0.0,
                                    dt=0.1)
    assert frac == 1.0
    # Same with a finite video: exhaustion caps the playing window
    # but every step inside it still misses its deadline.
    frac = late_fraction_from_trace(np.zeros(50), mu=10.0, tau=0.0,
                                    dt=0.1, video_duration_s=2.0)
    assert frac == 1.0


def test_trace_single_sample():
    # One adequate step at tau = 0: the first packet makes its
    # deadline.
    assert late_fraction_from_trace([20.0], mu=10.0, tau=0.0,
                                    dt=0.1) == 0.0
    # Playback has not started by the end of a one-step trace:
    # nothing has played, so nothing can be late (0/0 -> 0.0).
    assert late_fraction_from_trace([0.0], mu=10.0, tau=0.5,
                                    dt=0.1) == 0.0


def test_trace_finite_video_stops_playing_after_exhaustion():
    # 1 s of video over a 3 s trace at 2*mu: playback drains the whole
    # file on schedule and the idle tail after exhaustion contributes
    # no playing steps (late fraction stays 0, not diluted or
    # inflated by the tail).
    frac = late_fraction_from_trace([20.0] * 30, mu=10.0, tau=0.0,
                                    dt=0.1, video_duration_s=1.0)
    assert frac == 0.0
