"""Exact-solver oracle for the stationary Monte-Carlo late fraction.

``DmpModel.late_fraction_exact`` solves the joint chain of small
models outright, so the vectorized kernel is pinned to it on a grid of
small chains (K = 1, 2; wmax = 3, plus one wmax = 2 point) within 3
standard errors plus the exact solver's floor-truncation gap
``|exact(2f) - exact(f)|``.  The grid is shared by
``test_model_mc_kernel``, ``test_model_dmp`` and ``test_model_solver``.
"""

from functools import lru_cache

from repro.model.dmp_model import DmpModel, LateFractionEstimate
from repro.model.tcp_chain import FlowParams

# Exact-grid flows: small enough windows to enumerate the joint chain.
SMALL = FlowParams(p=0.05, rtt=0.2, to_ratio=2.0, wmax=3)
SMALL2 = FlowParams(p=0.08, rtt=0.3, to_ratio=2.0, wmax=3)
# A two-window flow: the coupled model then reduces to a queue-like
# birth-death chain on N.
TINY = FlowParams(p=0.2, rtt=0.5, to_ratio=1.0, wmax=2)

#: Exact-solver floor ``f`` on N; the oracle is ``exact(2f)`` and the
#: truncation gap ``|exact(2f) - exact(f)|`` widens the tolerance.
FLOOR = -20
HORIZON_S = 12000.0
SEED = 5


@lru_cache(maxsize=None)
def exact_pair(flows, mu, tau):
    """``(exact(FLOOR), exact(2 * FLOOR))``, solved once per point."""
    model = DmpModel(list(flows), mu=mu, tau=tau)
    return (model.late_fraction_exact(n_floor=FLOOR),
            model.late_fraction_exact(n_floor=2 * FLOOR))


def assert_matches_exact(flows, mu, tau) -> LateFractionEstimate:
    """Stationary MC estimate within 3 stderr + truncation gap."""
    shallow, deep = exact_pair(tuple(flows), mu, tau)
    est = DmpModel(list(flows), mu=mu, tau=tau).late_fraction_mc(
        horizon_s=HORIZON_S, seed=SEED)
    tol = 3.0 * est.stderr + abs(deep - shallow)
    assert abs(est.late_fraction - deep) <= tol, (est, deep, tol)
    return est
