"""Tests for the coupled DMP model: MC and exact solvers.

The rest of the Monte-Carlo-vs-exact agreement grid lives in
``tests/test_model_mc_kernel.py``.
"""

import math

import numpy as np
import pytest

from repro.model.dmp_model import DmpModel, LateFractionEstimate
from repro.model.mc_kernel import expected_excess_array
from repro.model.tcp_chain import FlowParams
from tests import exact_oracle

SMALL = FlowParams(p=0.05, rtt=0.2, to_ratio=2.0, wmax=4)
TYPICAL = FlowParams(p=0.02, rtt=0.15, to_ratio=2.0)


def poisson_pmf(lam, j):
    return math.exp(j * math.log(lam) - lam - math.lgamma(j + 1))


def test_expected_excess_against_direct_sum():
    lams, ms = np.meshgrid([0.5, 3.0, 12.0], [0, 1, 5, 20])
    got = expected_excess_array(lams, ms)
    for value, lam, m in zip(got.ravel(), lams.ravel(), ms.ravel()):
        direct = sum((j - m) * poisson_pmf(lam, j)
                     for j in range(m + 1, 200))
        assert value == pytest.approx(direct, abs=1e-9)


def test_expected_excess_edge_cases():
    got = expected_excess_array([0.0, 2.5, 0.0, -1.0], [5, 0, 0, 3])
    assert got.tolist() == [0.0, 2.5, 0.0, 0.0]


def test_model_validation():
    with pytest.raises(ValueError):
        DmpModel([], mu=10, tau=1)
    with pytest.raises(ValueError):
        DmpModel([SMALL], mu=0, tau=1)
    with pytest.raises(ValueError):
        DmpModel([SMALL], mu=10, tau=0)


def test_nmax_is_mu_tau():
    model = DmpModel([SMALL], mu=25, tau=4.0)
    assert model.nmax == 100


def test_aggregate_throughput_sums_paths():
    single = DmpModel([TYPICAL], mu=10, tau=1).aggregate_throughput()
    double = DmpModel([TYPICAL, TYPICAL], mu=10,
                      tau=1).aggregate_throughput()
    assert double == pytest.approx(2 * single, rel=1e-9)


def test_mc_matches_exact_on_small_chain():
    exact_oracle.assert_matches_exact(
        (exact_oracle.SMALL, exact_oracle.SMALL), mu=12.0, tau=1.0)


def test_mc_matches_exact_low_late_regime():
    # Over-provisioned: sigma_a/mu well above 1, small nmax; the exact
    # late fraction is near 3.5e-3.
    exact_oracle.assert_matches_exact(
        (exact_oracle.SMALL, exact_oracle.SMALL), mu=10.0, tau=2.0)


def test_exact_guard_on_state_space():
    big = DmpModel([TYPICAL, TYPICAL], mu=100, tau=10)
    with pytest.raises(ValueError):
        big.late_fraction_exact()


def test_exact_rejects_positive_floor():
    model = DmpModel([SMALL], mu=5, tau=1)
    with pytest.raises(ValueError):
        model.late_fraction_exact(n_floor=1)


def test_late_fraction_decreases_with_tau():
    model = DmpModel([TYPICAL, TYPICAL], mu=30, tau=1.0)
    fracs = []
    for tau in (1.0, 3.0, 6.0):
        est = model.with_tau(tau).late_fraction_mc(horizon_s=8000,
                                                   seed=1)
        fracs.append(est.late_fraction)
    assert fracs[0] > fracs[1] > fracs[2] or fracs[-1] < 1e-6


def test_late_fraction_decreases_with_ratio():
    # Higher sigma_a/mu (lower mu) -> lower late fraction.
    high = DmpModel([TYPICAL, TYPICAL], mu=25, tau=4.0)
    low = DmpModel([TYPICAL, TYPICAL], mu=45, tau=4.0)
    f_high = high.late_fraction_mc(horizon_s=10000, seed=1)
    f_low = low.late_fraction_mc(horizon_s=10000, seed=1)
    assert f_high.late_fraction <= f_low.late_fraction


def test_mc_reproducible_by_seed():
    model = DmpModel([TYPICAL, TYPICAL], mu=40, tau=2.0)
    a = model.late_fraction_mc(horizon_s=3000, seed=11)
    b = model.late_fraction_mc(horizon_s=3000, seed=11)
    assert a.late_fraction == b.late_fraction


def test_mc_path_shares_follow_throughput():
    fast = FlowParams(p=0.02, rtt=0.08, to_ratio=2.0)
    slow = FlowParams(p=0.02, rtt=0.24, to_ratio=2.0)
    model = DmpModel([fast, slow], mu=40, tau=3.0)
    est = model.late_fraction_mc(horizon_s=10000, seed=3)
    # Fast path has 3x the throughput; shares should reflect that.
    assert est.path_shares[0] > 0.6
    assert sum(est.path_shares) == pytest.approx(1.0)


def test_mc_estimate_fields():
    model = DmpModel([TYPICAL], mu=20, tau=2.0)
    est = model.late_fraction_mc(horizon_s=5000, seed=1)
    assert isinstance(est, LateFractionEstimate)
    assert est.horizon_s == 5000
    assert est.method == "mc"
    assert est.stderr >= 0.0


def test_mc_invalid_horizons():
    model = DmpModel([TYPICAL], mu=20, tau=2.0)
    with pytest.raises(ValueError):
        model.late_fraction_mc(horizon_s=0)
    with pytest.raises(ValueError):
        model.late_fraction_mc(horizon_s=100, burn_in_s=100)


def test_required_startup_delay_monotone_grid():
    model = DmpModel([TYPICAL, TYPICAL], mu=35, tau=1.0)
    required = model.required_startup_delay(
        threshold=1e-3, taus=[1, 2, 4, 8, 16, 32], horizon_s=8000,
        seed=1)
    assert required is not None
    # The threshold must indeed hold at the returned delay.
    est = model.with_tau(required).late_fraction_mc(horizon_s=8000,
                                                    seed=1)
    assert est.late_fraction < 1e-3


def test_required_startup_delay_none_when_unsatisfiable():
    # sigma_a/mu < 1: no startup delay suffices in steady state.
    model = DmpModel([TYPICAL], mu=200, tau=1.0)
    assert model.required_startup_delay(
        threshold=1e-4, taus=[1, 2, 4], horizon_s=3000, seed=1) is None


def test_with_tau_shares_chains():
    model = DmpModel([TYPICAL, TYPICAL], mu=30, tau=2.0)
    other = model.with_tau(5.0)
    assert other.chains[0] is model.chains[0]
    assert other.nmax == 150
