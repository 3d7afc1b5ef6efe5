"""Unit tests for the per-flow TCP CTMC."""

import pytest

from repro.model.tcp_chain import (
    FlowParams,
    TcpFlowChain,
    td_detection_probability,
)


def chain(p=0.02, rtt=0.2, to=2.0, wmax=16):
    return TcpFlowChain(FlowParams(p=p, rtt=rtt, to_ratio=to,
                                   wmax=wmax))


def test_parameter_validation():
    with pytest.raises(ValueError):
        FlowParams(p=0.0, rtt=0.1, to_ratio=2.0)
    with pytest.raises(ValueError):
        FlowParams(p=1.0, rtt=0.1, to_ratio=2.0)
    with pytest.raises(ValueError):
        FlowParams(p=0.1, rtt=0.0, to_ratio=2.0)
    with pytest.raises(ValueError):
        FlowParams(p=0.1, rtt=0.1, to_ratio=0.0)
    with pytest.raises(ValueError):
        FlowParams(p=0.1, rtt=0.1, to_ratio=2.0, wmax=1)


def test_outcome_probabilities_sum_to_one():
    c = chain()
    for outs in c.outcomes:
        assert sum(prob for prob, _, _ in outs) == pytest.approx(1.0)


def test_rates_positive_and_scale_with_rtt():
    fast = chain(rtt=0.1)
    slow = chain(rtt=0.2)
    assert all(rate > 0 for rate in fast.rates)
    for state, sid_fast in fast.index.items():
        sid_slow = slow.index[state]
        assert fast.rates[sid_fast] == pytest.approx(
            2.0 * slow.rates[sid_slow])


def test_delivered_counts_bounded_by_window():
    c = chain(wmax=8)
    for sid, outs in enumerate(c.outcomes):
        state = c.states[sid]
        for _, _, s in outs:
            if state[0] in ("CA", "SS"):
                assert 0 <= s <= state[1]
            else:
                assert s in (0, 1)


def test_stationary_distribution_normalised():
    pi = chain().stationary_distribution()
    assert pi.sum() == pytest.approx(1.0)
    assert (pi >= 0).all()


def test_throughput_decreases_with_loss():
    sigmas = [chain(p=p).achievable_throughput()
              for p in (0.005, 0.02, 0.08)]
    assert sigmas[0] > sigmas[1] > sigmas[2]


def test_throughput_inverse_in_rtt():
    sigma_fast = chain(rtt=0.1).achievable_throughput()
    sigma_slow = chain(rtt=0.3).achievable_throughput()
    assert sigma_fast == pytest.approx(3.0 * sigma_slow, rel=1e-6)


def test_throughput_decreases_with_timeout_ratio():
    sigma_short = chain(to=1.0).achievable_throughput()
    sigma_long = chain(to=4.0).achievable_throughput()
    assert sigma_short > sigma_long


def test_throughput_within_pftk_ballpark():
    from tests.pftk_reference import pftk_throughput
    params = FlowParams(p=0.02, rtt=0.2, to_ratio=2.0)
    sigma = TcpFlowChain(params).achievable_throughput()
    reference = pftk_throughput(0.02, 0.2, 0.4)
    # The chain is a bit more conservative than PFTK but must agree on
    # the order of magnitude (PFTK is known to be optimistic).
    assert 0.6 * reference < sigma < 1.3 * reference


def test_mean_window_decreases_with_loss():
    assert chain(p=0.005).mean_window() > chain(p=0.08).mean_window()


def test_timeout_fraction_increases_with_loss():
    assert chain(p=0.08).timeout_fraction() > \
        chain(p=0.005).timeout_fraction()


def test_td_detection_probability():
    assert td_detection_probability(1) == 1.0
    assert td_detection_probability(3) == 1.0
    assert td_detection_probability(6) == pytest.approx(0.5)
    assert td_detection_probability(30) == pytest.approx(0.1)


def test_window_capped_at_wmax():
    c = chain(p=0.001, wmax=8)
    for state in c.states:
        if state[0] in ("CA", "SS"):
            assert state[1] <= 8


def test_generator_rows_sum_to_zero():
    q = chain(wmax=8).generator()
    rowsums = q.sum(axis=1)
    assert abs(rowsums).max() < 1e-9


def test_chain_reachability_closed():
    c = chain()
    n = len(c)
    for outs in c.outcomes:
        for _, nxt, _ in outs:
            assert 0 <= nxt < n


def test_scaled_rtt_helper():
    params = FlowParams(p=0.02, rtt=0.2, to_ratio=2.0)
    scaled = params.scaled_rtt(0.4)
    assert scaled.p == params.p
    assert scaled.rtt == 0.4
    sigma_ratio = (TcpFlowChain(params).achievable_throughput()
                   / TcpFlowChain(scaled).achievable_throughput())
    assert sigma_ratio == pytest.approx(2.0, rel=1e-6)


def test_sigma_r_invariant_under_rtt():
    """sigma * R depends only on (p, T_O) — the Section-7 knob."""
    sig_r = [chain(rtt=r).achievable_throughput() * r
             for r in (0.05, 0.15, 0.45)]
    assert max(sig_r) - min(sig_r) < 1e-9 * max(sig_r) + 1e-12
