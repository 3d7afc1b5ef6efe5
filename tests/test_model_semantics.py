"""Semantic tests of the coupled model: freeze, caps, monotonicity."""

import numpy as np
import pytest

from repro.experiments.sweep import DelayQuestion, required_startup_delays
from repro.model.dmp_model import DmpModel
from repro.model.mc_kernel import compiled_model
from repro.model.tcp_chain import FlowParams

SMALL = FlowParams(p=0.05, rtt=0.2, to_ratio=2.0, wmax=3)


def test_buffer_occupancy_concentrates_at_nmax_when_overprovisioned():
    """With sigma_a >> mu the buffer should sit pinned at Nmax, so
    adding headroom (larger tau) drives lateness to ~zero quickly."""
    model = DmpModel([SMALL, SMALL], mu=5.0, tau=2.0)
    assert model.throughput_ratio > 1.5
    est = model.late_fraction_mc(horizon_s=20000, seed=2)
    assert est.late_fraction < 1e-3


def test_nmax_cap_enforced_in_exact_space():
    """The exact generator never creates states above Nmax: increasing
    consumption pressure (smaller nmax) raises P(N <= 0)."""
    small_tau = DmpModel([SMALL, SMALL], mu=12.0, tau=0.5)
    large_tau = DmpModel([SMALL, SMALL], mu=12.0, tau=2.0)
    f_small = small_tau.late_fraction_exact(n_floor=-60)
    f_large = large_tau.late_fraction_exact(n_floor=-60)
    assert f_small > f_large


def test_exact_truncation_converges():
    model = DmpModel([SMALL], mu=8.0, tau=1.0)
    shallow = model.late_fraction_exact(n_floor=-20)
    deep = model.late_fraction_exact(n_floor=-80)
    deeper = model.late_fraction_exact(n_floor=-120)
    # The floor-(-80) and floor-(-120) answers agree to ~1%.
    assert deep == pytest.approx(deeper, rel=0.02, abs=1e-8)
    # And the shallow one is within the same ballpark.
    assert shallow == pytest.approx(deeper, rel=0.5, abs=1e-6)


def test_mc_burn_in_discards_transient():
    """Starting state bias must wash out: the same chain with two very
    different horizons agrees once burn-in is discarded."""
    model = DmpModel([SMALL, SMALL], mu=14.0, tau=1.0)
    short = model.late_fraction_mc(horizon_s=15000, seed=5)
    long = model.late_fraction_mc(horizon_s=60000, seed=6)
    assert short.late_fraction == pytest.approx(
        long.late_fraction, rel=0.3, abs=5e-3)


def test_compile_tables_shapes():
    model = DmpModel([SMALL, SMALL], mu=10.0, tau=1.0)
    tables = compiled_model(model)
    assert tables.k == 2
    states = sum(len(chain) for chain in model.chains)
    assert tables.rate.shape == (states,)
    assert tables.cum.shape == tables.nxt.shape == tables.sval.shape \
        == (states, tables.width)
    assert np.all(tables.cum[:, -1] == 1.0)
    assert np.all(np.diff(tables.cum, axis=1) >= 0)


def test_sparse_loss_model_changes_throughput_not_interface():
    bursty = FlowParams(p=0.02, rtt=0.1, to_ratio=2.0)
    sparse = FlowParams(p=0.02, rtt=0.1, to_ratio=2.0,
                        loss_model="sparse")
    m_bursty = DmpModel([bursty, bursty], mu=30, tau=2.0)
    m_sparse = DmpModel([sparse, sparse], mu=30, tau=2.0)
    assert m_sparse.aggregate_throughput() > \
        m_bursty.aggregate_throughput()
    # Both produce valid estimates.
    for model in (m_bursty, m_sparse):
        est = model.late_fraction_mc(horizon_s=3000, seed=1)
        assert 0.0 <= est.late_fraction <= 1.0


def test_invalid_loss_model_rejected():
    with pytest.raises(ValueError):
        FlowParams(p=0.02, rtt=0.1, to_ratio=2.0,
                   loss_model="fractal")


def test_satisfies_sequential_decisions():
    # On a one-point grid the required delay is that point exactly
    # when its sequential threshold test is satisfied.
    # Clearly satisfiable: decided quickly, True.
    assert required_startup_delays(
        [DelayQuestion((SMALL, SMALL), 5.0, (3.0,))], threshold=1e-2,
        horizon_s=3000, seed=1) == [3.0]
    # Clearly unsatisfiable at huge mu.
    assert required_startup_delays(
        [DelayQuestion((SMALL,), 100.0, (1.0,))], threshold=1e-4,
        horizon_s=2000, seed=1) == [None]
