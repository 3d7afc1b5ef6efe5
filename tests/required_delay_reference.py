"""Sequential reference for the required startup delay.

One model at a time, one ``late_fraction_mc`` call after another: the
bisection :func:`repro.experiments.sweep.required_startup_delays` runs
in lockstep over ``fetch_estimates`` batches.  The differential tests
in ``tests/test_required_delay.py`` pin the lockstep search to it.
"""

from typing import Optional, Sequence

from repro.model.dmp_model import DmpModel


def required_startup_delay(model: DmpModel, threshold: float = 1e-4,
                           taus: Optional[Sequence[float]] = None,
                           horizon_s: float = 20000.0, seed: int = 0,
                           max_seeds: int = 4) -> Optional[float]:
    """Smallest startup delay on a grid with late fraction below
    ``threshold`` (None when no grid point satisfies it).

    The late fraction is non-increasing in tau, so the grid is scanned
    with bisection: the top, then the bottom, then midpoints.
    """
    if taus is None:
        taus = [float(t) for t in range(1, 41)]
    taus = sorted(taus)
    lo, hi = 0, len(taus) - 1
    if not satisfies(model, taus[hi], threshold, horizon_s, seed,
                     max_seeds):
        return None
    if satisfies(model, taus[lo], threshold, horizon_s, seed,
                 max_seeds):
        return taus[lo]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if satisfies(model, taus[mid], threshold, horizon_s, seed,
                     max_seeds):
            hi = mid
        else:
            lo = mid
    return taus[hi]


def satisfies(model: DmpModel, tau: float, threshold: float,
              horizon_s: float, seed: int, max_seeds: int = 4) -> bool:
    """Sequential threshold test, pooling seeds when undecisive."""
    at_tau = model.with_tau(tau)
    total = 0.0
    for i in range(max(1, max_seeds)):
        estimate = at_tau.late_fraction_mc(
            horizon_s=horizon_s, seed=seed + 7919 * i)
        total += estimate.late_fraction
        pooled = total / (i + 1)
        # Decisive once the pooled mean sits far from the line.
        if pooled >= 3.0 * threshold:
            return False
        if i >= 1 and pooled < threshold / 3.0:
            return True
        if i == 0 and pooled < threshold / 30.0:
            return True
    return pooled < threshold
