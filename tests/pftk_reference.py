"""The PFTK steady-state TCP throughput formula (Padhye et al. [24]).

A test reference, not part of the model: the paper's Section 7.2
Case 2 sets the second heterogeneous path's loss rate by inverting
this formula in ``p`` (it reports ``p2 = 0.012``).  The reproduction
inverts the per-flow chain instead (``repro.experiments.sweep.
invert_chain_loss``); the tests check the paper's value with this
formula and hold the chain's throughput to its ballpark.
"""

from __future__ import annotations

import math


def pftk_throughput(p: float, rtt: float, rto: float, b: int = 2,
                    wmax: float = float("inf")) -> float:
    """Achievable TCP throughput in packets/second.

    The full PFTK approximation (eq. (30) of [24]) with delayed-ACK
    factor ``b`` and an optional maximum window ``wmax``.

    Parameters
    ----------
    p:
        Loss event probability (0 < p < 1).
    rtt:
        Round-trip time in seconds.
    rto:
        Retransmission timeout in seconds (the paper's ``T_O * R``).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1): {p}")
    if rtt <= 0 or rto <= 0:
        raise ValueError("rtt and rto must be positive")
    if b < 1:
        raise ValueError("delayed-ACK factor b must be >= 1")

    wp = math.sqrt(2.0 * b * p / 3.0)
    q = min(1.0, 3.0 * math.sqrt(3.0 * b * p / 8.0))
    f = 1.0 + 32.0 * p * p
    denominator = rtt * wp + rto * q * p * f
    rate = 1.0 / denominator

    if math.isfinite(wmax):
        # Window-limited regime: cannot exceed wmax per RTT.
        rate = min(rate, wmax / rtt)
    return rate


def invert_loss_for_throughput(target: float, rtt: float,
                               to_ratio: float, b: int = 2,
                               wmax: float = float("inf"),
                               p_lo: float = 1e-6,
                               p_hi: float = 0.9,
                               tol: float = 1e-10) -> float:
    """Loss rate p such that ``pftk_throughput(p, ...) == target``.

    ``to_ratio`` is the paper's dimensionless ``T_O = RTO/RTT``.  The
    formula is strictly decreasing in ``p`` (for fixed everything
    else), so bisection converges; raises ValueError when the target is
    unreachable within ``[p_lo, p_hi]``.
    """
    if target <= 0:
        raise ValueError("target throughput must be positive")
    rto = to_ratio * rtt

    def gap(p: float) -> float:
        return pftk_throughput(p, rtt, rto, b=b, wmax=wmax) - target

    lo, hi = p_lo, p_hi
    if gap(lo) < 0:
        raise ValueError(
            f"target {target} pkts/s unreachable even at p={lo}")
    if gap(hi) > 0:
        raise ValueError(
            f"target {target} pkts/s exceeded even at p={hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
