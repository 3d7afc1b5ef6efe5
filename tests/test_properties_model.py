"""Property-based tests on the model's linear-algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csc_matrix

from repro.model.tcp_chain import FlowParams, TcpFlowChain, \
    solve_stationary


def random_generator(rates):
    """Dense CTMC generator from a flat off-diagonal rate list."""
    n = int(len(rates) ** 0.5) + 1
    q = np.zeros((n, n))
    it = iter(rates)
    for i in range(n):
        for j in range(n):
            if i != j:
                q[i, j] = next(it, 0.5)
    for i in range(n):
        q[i, i] = -q[i].sum()
    return q


rate_lists = st.lists(
    st.floats(min_value=0.05, max_value=5.0), min_size=2,
    max_size=24)


@settings(max_examples=40, deadline=None)
@given(rates=rate_lists)
def test_solve_stationary_satisfies_balance(rates):
    q = random_generator(rates)
    pi = solve_stationary(csc_matrix(q))
    assert pi.sum() == pytest.approx(1.0)
    residual = pi @ q
    assert np.abs(residual).max() < 1e-8


@settings(max_examples=10, deadline=None)
@given(p=st.floats(min_value=0.005, max_value=0.2),
       wmax_small=st.integers(min_value=2, max_value=6))
def test_chain_throughput_nondecreasing_in_wmax(p, wmax_small):
    small = TcpFlowChain(FlowParams(
        p=p, rtt=0.1, to_ratio=2.0,
        wmax=wmax_small)).achievable_throughput()
    large = TcpFlowChain(FlowParams(
        p=p, rtt=0.1, to_ratio=2.0,
        wmax=wmax_small * 2)).achievable_throughput()
    assert large >= small - 1e-9
