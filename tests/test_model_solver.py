"""Numerical validation of the stationary solver on closed-form chains."""

import numpy as np
import pytest
from scipy.sparse import csc_matrix

from repro.model.tcp_chain import solve_stationary
from tests import exact_oracle


def generator_from_dense(q):
    return csc_matrix(np.asarray(q, dtype=float))


def test_two_state_chain():
    # 0 -> 1 at rate a, 1 -> 0 at rate b: pi = (b, a) / (a + b).
    a, b = 2.0, 3.0
    q = [[-a, a], [b, -b]]
    pi = solve_stationary(generator_from_dense(q))
    assert pi == pytest.approx([b / (a + b), a / (a + b)])


def test_mm1k_queue():
    # M/M/1/K: pi_n ~ rho^n.
    lam, mu_rate, k = 3.0, 5.0, 6
    n = k + 1
    q = np.zeros((n, n))
    for i in range(n):
        if i < k:
            q[i, i + 1] = lam
        if i > 0:
            q[i, i - 1] = mu_rate
        q[i, i] = -q[i].sum()
    pi = solve_stationary(generator_from_dense(q))
    rho = lam / mu_rate
    expected = np.array([rho ** i for i in range(n)])
    expected /= expected.sum()
    assert np.allclose(pi, expected, atol=1e-12)


def test_uniform_ring():
    # Symmetric ring: uniform stationary distribution.
    n = 7
    q = np.zeros((n, n))
    for i in range(n):
        q[i, (i + 1) % n] = 1.0
        q[i, (i - 1) % n] = 1.0
        q[i, i] = -2.0
    pi = solve_stationary(generator_from_dense(q))
    assert np.allclose(pi, np.full(n, 1.0 / n))


def test_detailed_balance_birth_death():
    # Arbitrary birth/death rates: pi_i * b_i == pi_{i+1} * d_{i+1}.
    births = [1.0, 2.5, 0.7, 3.0]
    deaths = [2.0, 1.5, 2.2, 0.9]
    n = len(births) + 1
    q = np.zeros((n, n))
    for i, rate in enumerate(births):
        q[i, i + 1] = rate
    for i, rate in enumerate(deaths):
        q[i + 1, i] = rate
    for i in range(n):
        q[i, i] = -(q[i].sum() - q[i, i])
    pi = solve_stationary(generator_from_dense(q))
    for i, (b, d) in enumerate(zip(births, deaths)):
        assert pi[i] * b == pytest.approx(pi[i + 1] * d, rel=1e-10)


def test_solver_normalises():
    q = [[-1.0, 1.0], [4.0, -4.0]]
    pi = solve_stationary(generator_from_dense(q))
    assert pi.sum() == pytest.approx(1.0)
    assert (pi >= 0).all()


def test_mc_against_mm1k_analogy():
    """The coupled model with a two-window flow reduces to a queue;
    check MC against the exact joint solve on the same model.

    sigma/mu = 1.5: below 1 the deficit drifts without bound and only
    the exact solver's reflecting floor makes it stationary.
    """
    exact_oracle.assert_matches_exact((exact_oracle.TINY,), mu=1.5,
                                      tau=2.0)
