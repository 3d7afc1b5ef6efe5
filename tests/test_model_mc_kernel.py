"""Vectorized MC kernel: exact oracles, tables, properties.

The kernel is a Monte-Carlo estimator, so its contract is statistical,
and it is pinned to references stronger than a second estimator:

* the stationary late fraction to ``DmpModel.late_fraction_exact`` on
  a grid of small chains (K = 1, 2; wmax = 3, plus one wmax = 2 point),
  within 3 standard errors plus the exact solver's floor-truncation
  gap ``|exact(2f) - exact(f)|`` (``tests/exact_oracle.py``);
* the path shares to the chains' own throughput split
  ``sigma_k / sum(sigma_j)`` (freezing at ``Nmax`` stops every flow at
  once, so it cannot skew the shares);
* the transient late fraction to the exact stationary answer in the
  long-video limit, at integer ``mu * tau`` (the transient cap is
  real-valued while the exact chain's ``nmax`` is rounded);
* the startup ramp, which no exact solver models, to the event-by-event
  reference loop in ``tests/mc_reference.py`` on a short video.

The Rao-Blackwellised late accounting (``expected_excess_array``) is
checked against brute-force Poisson tail summation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from repro.experiments import sweep
from repro.model import mc_kernel
from repro.model.dmp_model import DmpModel
from repro.model.mc_kernel import (
    CompiledModel,
    compiled_model,
    expected_excess_array,
)
from repro.model.tcp_chain import FlowParams, TcpFlowChain
from tests import mc_reference, required_delay_reference
from tests.exact_oracle import (
    SEED,
    SMALL,
    SMALL2,
    assert_matches_exact,
    exact_pair,
)

FAST = FlowParams(p=0.05, rtt=0.2, to_ratio=2.0, wmax=4)
FAST2 = FlowParams(p=0.08, rtt=0.3, to_ratio=2.0, wmax=4)


def brute_force_excess(lam: float, m: int) -> float:
    """E[(X-m)^+] summed term by term over the Poisson pmf."""
    if lam == 0.0:
        return 0.0
    hi = int(lam + 12.0 * math.sqrt(lam) + m + 60)
    xs = np.arange(m + 1, hi + 1)
    return float(((xs - m) * poisson.pmf(xs, lam)).sum())


def _excess(lam: float, m: int) -> float:
    return float(expected_excess_array(np.array([lam]),
                                       np.array([m]))[0])


# ---------------------------------------------------------------------
# expected_excess_array against brute force
# ---------------------------------------------------------------------
class TestExpectedExcess:
    def test_lam_zero(self):
        assert expected_excess_array(np.zeros(3),
                                     np.array([0, 1, 9])).tolist() \
            == [0.0, 0.0, 0.0]

    def test_m_zero_is_mean(self):
        lams = np.array([0.3, 1.0, 2.5, 40.0, 900.0])
        np.testing.assert_allclose(
            expected_excess_array(lams, np.zeros(5, dtype=int)), lams)

    @given(lam=st.floats(min_value=1e-3, max_value=60.0),
           m=st.integers(min_value=0, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, lam, m):
        assert _excess(lam, m) == pytest.approx(
            brute_force_excess(lam, m), rel=1e-9, abs=1e-12)

    def test_large_lam_regime(self):
        # Deep in the normal-like regime the identity must stay exact.
        for lam, m in ((500.0, 450), (500.0, 500), (500.0, 560),
                       (2000.0, 2100)):
            assert _excess(lam, m) == pytest.approx(
                brute_force_excess(lam, m), rel=1e-9, abs=1e-9)

    def test_array_matches_scalar_elementwise(self):
        lams = np.array([0.0, 0.5, 3.0, 12.0, 200.0])
        ms = np.array([2, 0, 3, 20, 190])
        out = expected_excess_array(lams, ms)
        for got, lam, m in zip(out, lams, ms):
            assert got == pytest.approx(
                brute_force_excess(float(lam), int(m)),
                rel=1e-9, abs=1e-12)

    def test_broadcasting(self):
        out = expected_excess_array(np.array([[1.0], [2.0]]),
                                    np.array([0, 1]))
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(1.0)


# ---------------------------------------------------------------------
# Compiled outcome tables
# ---------------------------------------------------------------------
class _StubChain:
    """Minimal chain: two states, hand-written outcome lists."""

    def __init__(self, outcomes, rates=None):
        self.outcomes = outcomes
        self.rates = rates or [1.0] * len(outcomes)
        self.states = [("CA", 1, i) for i in range(len(outcomes))]

    def __len__(self):
        return len(self.outcomes)


class TestCompiledModel:
    def test_rows_end_at_one_and_padding_unreachable(self):
        chain = TcpFlowChain(FAST)
        compiled = CompiledModel([chain, chain])
        real_width = [len(outs) for outs in chain.outcomes] * 2
        for row, width in enumerate(real_width):
            assert compiled.cum[row, width - 1] == 1.0
            assert (compiled.cum[row, width:] == 1.0).all()
        # u -> 1 selects the last *real* outcome, never padding.
        firing = np.arange(len(compiled.rate))
        nxt, s = compiled.sample_outcomes(
            firing, np.full(len(firing), np.nextafter(1.0, 0.0)))
        for row, width in enumerate(real_width):
            base = 0 if row < len(chain) else len(chain)
            prob, nid, sval = chain.outcomes[row % len(chain)][-1]
            assert nxt[row] == base + nid
            assert s[row] == sval

    def test_normalises_within_tolerance(self):
        eps = 2e-10  # inside PROB_TOLERANCE
        chain = _StubChain([[(0.5, 0, 1), (0.5 + eps, 1, 0)],
                            [(1.0, 0, 2)]])
        compiled = CompiledModel([chain])
        assert compiled.cum[0, -1] == 1.0

    def test_rejects_bad_probabilities(self):
        chain = _StubChain([[(0.5, 0, 1), (0.4, 1, 0)],
                            [(1.0, 0, 2)]])
        with pytest.raises(AssertionError,
                           match="outcome probabilities"):
            CompiledModel([chain])

    def test_global_ids_span_chains(self):
        a, b = TcpFlowChain(FAST), TcpFlowChain(FAST2)
        compiled = CompiledModel([a, b])
        assert compiled.offsets.tolist() == [0, len(a),
                                             len(a) + len(b)]
        local = np.array([0, 1])
        assert (compiled.chain_state_ids(1, local)
                == len(a) + local).all()

    def test_cached_on_model(self):
        model = DmpModel([FAST, FAST], mu=18, tau=1.0)
        assert compiled_model(model) is compiled_model(model)


# ---------------------------------------------------------------------
# Exact oracles (tests/exact_oracle.py; the grid's (12, 1) and low-late
# (10, 2) K=2 points live in test_model_dmp, its wmax=2 point in
# test_model_solver)
# ---------------------------------------------------------------------
class TestStationaryEquivalence:
    # Keep the grid where the exact late fraction is >= 1e-2: below
    # that, tier-1 horizons are dominated by rare deep-deficit
    # excursions and the batch stderr under-covers the estimate's
    # error.
    @pytest.mark.parametrize("mu,tau", [
        (18.0, 1.0), (16.0, 1.5), (14.0, 2.0)])
    def test_homogeneous_grid(self, mu, tau):
        assert_matches_exact((SMALL, SMALL), mu, tau)

    @pytest.mark.parametrize("flow,mu,tau", [
        pytest.param(SMALL, 7.0, 1.0, id="w3-7.0-1.0"),
        pytest.param(SMALL, 6.0, 2.0, id="w3-6.0-2.0"),
        pytest.param(SMALL, 5.0, 2.0, id="w3-5.0-2.0"),
    ])
    def test_single_path_grid(self, flow, mu, tau):
        assert_matches_exact((flow,), mu, tau)

    def test_heterogeneous_paths_and_shares(self):
        est = assert_matches_exact((SMALL, SMALL2), 10.0, 1.5)
        model = DmpModel([SMALL, SMALL2], mu=10.0, tau=1.5)
        sigmas = [chain.achievable_throughput()
                  for chain in model.chains]
        assert sum(est.path_shares) == pytest.approx(1.0)
        for share, sigma in zip(est.path_shares, sigmas):
            assert abs(share - sigma / sum(sigmas)) <= 0.01

    def test_static_scheme_uses_kernel(self):
        # Fig 11 evaluates the static scheme on two homogeneous paths
        # as two mu/2 single-path sub-videos, each a kernel solve.
        taus = (1.0, 2.0, 4.0, 8.0)
        half = DmpModel([FAST], mu=8.0, tau=1.0)
        assert half.late_fraction_mc(horizon_s=4000, seed=2).method \
            == "mc"
        (required,) = sweep.required_startup_delays(
            [sweep.DelayQuestion((FAST,), 16.0 / 2.0, taus)],
            threshold=1e-2, horizon_s=4000, seed=2)
        assert required == required_delay_reference.required_startup_delay(
            half, threshold=1e-2, taus=taus, horizon_s=4000, seed=2)
        assert required == 8.0

    def test_vectorized_is_deterministic(self):
        model = DmpModel([FAST, FAST], mu=18, tau=1.0)
        a = model.late_fraction_mc(horizon_s=4000, seed=11)
        b = model.late_fraction_mc(horizon_s=4000, seed=11)
        assert a.late_fraction == b.late_fraction
        assert a.stderr == b.stderr
        assert a.path_shares == b.path_shares


# ---------------------------------------------------------------------
# Transient
# ---------------------------------------------------------------------
class TestTransientEquivalence:
    def test_within_three_stderr(self):
        """Short video, startup ramp included: no exact solver covers
        the time-varying live cap, so the reference is the
        event-by-event loop."""
        model = DmpModel([FAST, FAST], mu=18, tau=1.0)
        ref = mc_reference.transient_late_fraction(
            model, video_s=60.0, replications=60, seed=9)
        vec = model.late_fraction_transient(
            video_s=60.0, replications=60, seed=9)
        assert ref.method == vec.method == "transient-mc"
        tol = 3.0 * math.hypot(ref.stderr, vec.stderr) + 1e-6
        assert abs(ref.late_fraction - vec.late_fraction) <= tol

    # Integer mu * tau only: the transient cap mu * tau is real-valued
    # while the exact chain rounds nmax, and a non-integer cap reads
    # ~10% low against it.
    @pytest.mark.parametrize("flows,mu,tau", [
        pytest.param((SMALL, SMALL), 12.0, 1.0, id="k2-12.0-1.0"),
        pytest.param((SMALL, SMALL2), 10.0, 1.5, id="k2-10.0-1.5"),
        pytest.param((SMALL,), 6.0, 2.0, id="k1-6.0-2.0"),
        pytest.param((SMALL,), 5.0, 2.0, id="k1-5.0-2.0"),
    ])
    def test_long_video_matches_exact(self, flows, mu, tau):
        assert float(mu * tau).is_integer()
        _, deep = exact_pair(flows, mu, tau)
        est = DmpModel(list(flows), mu=mu, tau=tau) \
            .late_fraction_transient(video_s=2000.0, replications=8,
                                     seed=SEED)
        assert abs(est.late_fraction - deep) <= 3.0 * est.stderr, \
            (est, deep)

    def test_vectorized_is_deterministic(self):
        model = DmpModel([FAST, FAST], mu=18, tau=1.0)
        a = model.late_fraction_transient(video_s=30.0,
                                          replications=20, seed=4)
        b = model.late_fraction_transient(video_s=30.0,
                                          replications=20, seed=4)
        assert a.late_fraction == b.late_fraction


# ---------------------------------------------------------------------
# Replica sizing
# ---------------------------------------------------------------------
class TestReplicaCount:
    def test_never_below_batches(self):
        assert mc_kernel.stationary_replica_count(
            2000.0, 1000.0, 4.0, batches=10) >= 10

    def test_respects_cap_and_multiples(self):
        count = mc_kernel.stationary_replica_count(
            1e7, 0.0, 1.0, batches=10)
        assert count <= mc_kernel.MAX_REPLICAS
        assert count % 10 == 0

    def test_scales_with_measured_time(self):
        small = mc_kernel.stationary_replica_count(
            5000.0, 1000.0, 2.0, batches=10)
        large = mc_kernel.stationary_replica_count(
            20000.0, 1000.0, 2.0, batches=10)
        assert large >= small

    def test_single_batch_still_gets_two_replicas(self):
        # A short horizon fits less than two measurement windows, yet
        # the standard error needs a second replica.
        assert mc_kernel.stationary_replica_count(
            200.0, 20.0, 1.0, batches=1) == 2
        est = DmpModel([FAST, FAST], mu=18, tau=1).late_fraction_mc(
            horizon_s=200, batches=1)
        assert 0.0 <= est.late_fraction <= 1.0
        assert math.isfinite(est.stderr)
