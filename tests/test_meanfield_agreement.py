"""Pinned agreement: mean-field backend vs the packet simulator.

The mean-field backend only earns the right to extrapolate to N=10^6
sessions if it matches :class:`repro.core.campaign.MultiSessionCampaign`
where the packet sim is still affordable.  This suite pins the
population *mean* late fraction at N = 10, 100 and 1000 sessions, for
both disciplines with a fluid drop profile (drop-tail and RED), at a
congested (ratio 0.75) and a provisioned (ratio 1.6) operating point,
plus one point with persistent background flows.

Operating envelope (chosen deliberately; see docs/performance.md):

* shallow buffer (2 packets/session) and 40 ms propagation — deep
  buffers push drop-tail into global synchronization, which worsens
  with N and violates the propagation-of-chaos assumption behind the
  limit (the McDonald-Reynier theorem is a RED result; drop-tail is
  the hard-limit case and agrees only away from synchrony);
* clearly congested or clearly provisioned ratios — near-critical
  ratios (~0.9) are hypersensitive to timeout overhead and do not
  discriminate between backends.

The pinned bands are absolute (documented here rather than derived
from pooled stderr, because a single seeded campaign per point keeps
the suite deterministic): at the congested point the mean-field is
conservative at small tau (``0 <= mf - sim <= 0.20`` at tau=3) and
slightly optimistic at large tau (``-0.10 <= mf - sim <= 0.05`` at
tau=8); provisioned and background points must agree within 0.02.
Observed diffs sit well inside these bands (tau=3: +0.05..+0.14,
tau=8: -0.06..-0.02).
"""

import functools

import pytest

from repro.core.campaign import MultiSessionCampaign
from repro.model.meanfield import MeanFieldSpec, solve_meanfield
from repro.sim.topology import BottleneckSpec

MU = 10.0
PATHS = 2
DELAY_S = 0.04
BUFFER_PER_SESSION = 2.0
DURATION_S = 30.0
WARMUP_S = 20.0
DRAIN_S = 40.0
BASE_RTT_S = 2.0 * (2.0 * 0.010 + DELAY_S)  # fan-in access hops

CONGESTED = 0.75
PROVISIONED = 1.6

# Pinned absolute bands on (mean-field - sim), per tau (see module
# docstring for the rationale).
CONGESTED_BANDS = {3.0: (0.0, 0.20), 8.0: (-0.10, 0.05)}
PROVISIONED_TOLERANCE = 0.02


@functools.lru_cache(maxsize=None)
def packet_mean(n_sessions, ratio, discipline, n_ftp, tau):
    """Population mean late fraction from one seeded packet campaign.

    The campaign is cached per operating point, so every tau of every
    test reuses the same (expensive) N=1000 run.
    """
    result = _campaign_result(n_sessions, ratio, discipline, n_ftp)
    return result.population(tau)["mean"]


@functools.lru_cache(maxsize=None)
def _campaign_result(n_sessions, ratio, discipline, n_ftp):
    bandwidth_pps = ratio * MU * n_sessions
    campaign = MultiSessionCampaign(
        mu=MU, duration_s=DURATION_S, n_sessions=n_sessions,
        bottleneck=BottleneckSpec(
            bandwidth_bps=bandwidth_pps * 1500 * 8,
            delay_s=DELAY_S,
            buffer_pkts=int(round(BUFFER_PER_SESSION * n_sessions))),
        paths_per_session=PATHS, queue_discipline=discipline,
        seed=7, stagger_s=5.0 / n_sessions, warmup_s=WARMUP_S,
        n_ftp=n_ftp)
    return campaign.run(drain_s=DRAIN_S)


@functools.lru_cache(maxsize=None)
def meanfield_solution(n_sessions, ratio, discipline, n_ftp):
    return solve_meanfield(MeanFieldSpec(
        n_sessions=n_sessions, mu=MU,
        bandwidth_pps=ratio * MU * n_sessions,
        buffer_pkts=BUFFER_PER_SESSION * n_sessions,
        queue_discipline=discipline, paths_per_session=PATHS,
        n_background=n_ftp, base_rtt_s=BASE_RTT_S,
        duration_s=DURATION_S, warmup_s=WARMUP_S, drain_s=DRAIN_S))


DISCIPLINES = ("droptail", "red")
SMALL_NS = (10, 100)


@pytest.mark.parametrize("discipline", DISCIPLINES)
@pytest.mark.parametrize("n_sessions", SMALL_NS + (1000,))
@pytest.mark.parametrize("tau", sorted(CONGESTED_BANDS))
def test_congested_agreement(n_sessions, discipline, tau):
    sim = packet_mean(n_sessions, CONGESTED, discipline, 0, tau)
    mf = meanfield_solution(
        n_sessions, CONGESTED, discipline, 0).late_fraction(tau)
    # The point must actually be congested — otherwise the band is
    # trivially satisfied and pins nothing.
    assert sim > 0.1 and mf > 0.1, (sim, mf)
    lo, hi = CONGESTED_BANDS[tau]
    assert lo <= mf - sim <= hi, (
        f"N={n_sessions} {discipline} tau={tau}: "
        f"sim={sim:.4f} meanfield={mf:.4f} diff={mf - sim:+.4f} "
        f"outside [{lo:+.2f}, {hi:+.2f}]")


@pytest.mark.parametrize("discipline", DISCIPLINES)
@pytest.mark.parametrize("n_sessions", SMALL_NS)
@pytest.mark.parametrize("tau", (3.0, 8.0))
def test_provisioned_agreement(n_sessions, discipline, tau):
    sim = packet_mean(n_sessions, PROVISIONED, discipline, 0, tau)
    mf = meanfield_solution(
        n_sessions, PROVISIONED, discipline, 0).late_fraction(tau)
    assert mf == 0.0
    assert abs(mf - sim) <= PROVISIONED_TOLERANCE, (sim, mf)


@pytest.mark.parametrize("tau", (3.0, 8.0))
def test_background_load_agreement(tau):
    """Provisioned point with 10 persistent FTP flows riding along."""
    sim = packet_mean(100, PROVISIONED, "droptail", 10, tau)
    mf = meanfield_solution(
        100, PROVISIONED, "droptail", 10).late_fraction(tau)
    assert abs(mf - sim) <= PROVISIONED_TOLERANCE, (sim, mf)


def test_meanfield_is_n_invariant_where_sim_is_not_affordable():
    """The same solve extends to N=10^6 with identical output."""
    small = meanfield_solution(1000, CONGESTED, "red", 0)
    huge = solve_meanfield(MeanFieldSpec(
        n_sessions=1_024_000, mu=MU,
        bandwidth_pps=CONGESTED * MU * 1_024_000,
        buffer_pkts=BUFFER_PER_SESSION * 1_024_000,
        queue_discipline="red", paths_per_session=PATHS,
        base_rtt_s=BASE_RTT_S, duration_s=DURATION_S,
        warmup_s=WARMUP_S, drain_s=DRAIN_S))
    for tau in sorted(CONGESTED_BANDS):
        assert small.late_fraction(tau) == huge.late_fraction(tau)
