"""Unit tests for the PFTK throughput formula and its inversion."""

import math

import pytest

from tests.pftk_reference import invert_loss_for_throughput, pftk_throughput


def test_known_regimes():
    # Low loss, no timeouts dominate: close to the square-root law.
    p, rtt = 0.0001, 0.1
    sqrt_law = 1.0 / (rtt * math.sqrt(2 * 2 * p / 3.0))
    assert pftk_throughput(p, rtt, 0.2) == pytest.approx(
        sqrt_law, rel=0.05)


def test_monotone_decreasing_in_p():
    values = [pftk_throughput(p, 0.1, 0.4)
              for p in (0.001, 0.01, 0.05, 0.2)]
    assert values == sorted(values, reverse=True)


def test_monotone_decreasing_in_rtt():
    values = [pftk_throughput(0.02, rtt, 0.4)
              for rtt in (0.05, 0.1, 0.3)]
    assert values == sorted(values, reverse=True)


def test_monotone_decreasing_in_rto():
    values = [pftk_throughput(0.02, 0.1, rto)
              for rto in (0.1, 0.4, 1.0)]
    assert values == sorted(values, reverse=True)


def test_wmax_caps_throughput():
    uncapped = pftk_throughput(0.0001, 0.1, 0.2)
    capped = pftk_throughput(0.0001, 0.1, 0.2, wmax=10)
    assert capped == pytest.approx(100.0)
    assert uncapped > capped


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        pftk_throughput(0.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        pftk_throughput(1.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        pftk_throughput(0.01, 0.0, 0.2)
    with pytest.raises(ValueError):
        pftk_throughput(0.01, 0.1, 0.2, b=0)


def test_inversion_roundtrip():
    rtt, to_ratio = 0.15, 2.0
    for p in (0.004, 0.02, 0.08):
        sigma = pftk_throughput(p, rtt, to_ratio * rtt)
        recovered = invert_loss_for_throughput(sigma, rtt, to_ratio)
        assert recovered == pytest.approx(p, rel=1e-4)


def test_inversion_unreachable_targets():
    with pytest.raises(ValueError):
        invert_loss_for_throughput(1e9, 0.1, 2.0)
    with pytest.raises(ValueError):
        invert_loss_for_throughput(1e-6, 0.1, 2.0)


def test_inversion_rejects_bad_target():
    with pytest.raises(ValueError):
        invert_loss_for_throughput(0.0, 0.1, 2.0)


def test_paper_case2_heterogeneity_values():
    """Paper Section 7.2 Case 2: po=0.02, gamma=2 gives p2 ~ 0.012.

    (The paper reports pe2 = 0.012 with PFTK; reproduce it.)
    """
    rtt, to_ratio = 0.1, 4.0
    sigma_o = pftk_throughput(0.02, rtt, to_ratio * rtt)
    sigma_1 = pftk_throughput(0.04, rtt, to_ratio * rtt)
    p2 = invert_loss_for_throughput(2 * sigma_o - sigma_1, rtt,
                                    to_ratio)
    assert p2 == pytest.approx(0.012, abs=0.004)
