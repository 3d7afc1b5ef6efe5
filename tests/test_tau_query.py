"""Differential tests: one late predicate, and tau as a query.

Packet ``i`` is late when it arrives after ``tau + i/mu`` on the
session's video clock (Section 2).  Three code paths answer that
question and must agree *exactly*, including on arrivals that land on
their deadline:

* post-hoc :func:`repro.core.metrics.late_fraction` on a result;
* the streaming :class:`repro.obs.health.SessionHealth`;
* a cache record — written by :func:`~repro.experiments.cache.
  session_record`, round-tripped through JSON and read back by
  :func:`~repro.experiments.cache.run_late_fractions` at any tau.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core.metrics import late_fraction
from repro.core.campaign import MultiSessionCampaign, SessionSummary
from repro.experiments.cache import (
    ResultCache,
    run_late_fractions,
    session_record,
)
from repro.experiments.configs import ALL_SETTINGS
from repro.experiments.parallel import simulate_run
from repro.experiments.runner import setting_run_spec
from repro.obs.health import SessionHealth, SessionMeta

MUS = st.sampled_from([1.0, 3.0, 7.0, 10.0, 25.0, 50.0])
TAUS = st.floats(min_value=0.0, max_value=12.0, allow_nan=False)


@st.composite
def stream(draw):
    """A session's arrivals: every packet missing, on its deadline at
    some tau, or at a random time, in arrival order."""
    mu = draw(MUS)
    total = draw(st.integers(min_value=0, max_value=60))
    taus = draw(st.lists(TAUS, min_size=1, max_size=4))
    arrivals = []
    for number in range(total):
        kind = draw(st.sampled_from(["missing", "deadline", "random"]))
        if kind == "deadline":
            arrivals.append((number, draw(st.sampled_from(taus))
                             + number / mu))
        elif kind == "random":
            arrivals.append((number, draw(st.floats(
                min_value=0.0, max_value=30.0, allow_nan=False))))
    arrivals.sort(key=lambda item: item[1])
    return mu, total, taus, arrivals


def _health(start_at, mu, total, tau, absolute):
    health = SessionHealth(SessionMeta(label="s0.", start_at=start_at,
                                       mu=mu, total_packets=total), tau)
    for number, time in absolute:
        health.on_arrival(time, "s0.path1", number)
    return health


@settings(max_examples=200, deadline=None)
@given(data=stream(),
       start_at=st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False))
def test_session_health_matches_metrics_exactly(data, start_at):
    mu, total, taus, relative = data
    # What the simulator sees: absolute times; what results carry:
    # the same times shifted back to the video clock (the subtraction
    # SessionAssembly.arrivals_relative performs).
    absolute = [(number, start_at + t) for number, t in relative]
    shifted = [(number, time - start_at) for number, time in absolute]
    for tau in taus:
        health = _health(start_at, mu, total, tau, absolute)
        assert health.late_fraction() == late_fraction(
            shifted, mu, tau, total_packets=total)


def test_exact_deadline_arrivals_agree():
    """mu=3, tau=2, start_at=0.7: every packet arrives on its deadline.
    The streaming and post-hoc tests used to disagree on 59 of them."""
    mu, tau, start_at, total = 3.0, 2.0, 0.7, 199
    absolute = [(i, start_at + (tau + i / mu)) for i in range(total)]
    shifted = [(i, time - start_at) for i, time in absolute]
    health = _health(start_at, mu, total, tau, absolute)
    late = sum(1 for i, t in shifted if t > tau + i / mu)
    assert health.late_packets == late
    assert health.late_fraction() == late_fraction(
        shifted, mu, tau, total_packets=total)


@settings(max_examples=200, deadline=None)
@given(data=stream(), extra=st.lists(TAUS, max_size=3))
def test_record_round_trip_answers_every_tau(data, extra):
    mu, total, taus, arrivals = data
    live = SessionSummary(index=0, label="", start_at=0.0, mu=mu,
                          total_packets=total, received=len(arrivals),
                          arrivals=arrivals, flow_stats=[],
                          path_shares=[])
    record = {"flow_stats": [],
              "sessions": [session_record(total, arrivals)]}
    stored = json.loads(json.dumps(record))
    for tau in taus + extra:
        metrics = live.metrics(tau)
        assert run_late_fractions(stored, mu, tau) == [
            (metrics.late_fraction, metrics.arrival_order_late_fraction)]


def test_simulated_record_through_the_cache_matches_the_live_run(
        tmp_path):
    """simulate_run -> put_run -> JSON on disk -> get_run -> reader
    equals the live one-session result at taus never requested."""
    setting = ALL_SETTINGS["2-2"]
    spec = setting_run_spec(setting, 5.0, 3, scheme="dmp",
                            send_buffer_pkts=16)
    cache = ResultCache(str(tmp_path))
    cache.put_run(spec, simulate_run(spec))
    record = cache.get_run(spec)
    assert record is not None
    (live,) = MultiSessionCampaign(
        mu=setting.mu, duration_s=5.0, paths=setting.path_configs(),
        scheme="dmp", shared_bottleneck=setting.shared_bottleneck,
        seed=3, send_buffer_pkts=16,
        queue_discipline=setting.queue_discipline).run().sessions
    for tau in (0.0, 0.25, 1.0, 2.5, 4.0):
        metrics = live.metrics(tau)
        assert run_late_fractions(record, setting.mu, tau) == [
            (metrics.late_fraction, metrics.arrival_order_late_fraction)]
