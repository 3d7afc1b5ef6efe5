"""Unit tests for the playback metrics (Section 2 definitions)."""

import pytest

from repro.core.metrics import (
    arrival_order_late_fraction,
    late_fraction,
    playback_metrics,
    reordering_stats,
)


def test_all_on_time():
    # mu=10, tau=1: packet i plays at 1 + i/10.
    arrivals = [(i, 0.5 + i / 10) for i in range(10)]
    assert late_fraction(arrivals, mu=10, tau=1.0) == 0.0


def test_all_late():
    arrivals = [(i, 2.0 + i / 10) for i in range(10)]
    assert late_fraction(arrivals, mu=10, tau=1.0) == 1.0


def test_boundary_is_not_late():
    # Arrival exactly at the playback instant counts as on time.
    arrivals = [(0, 1.0)]
    assert late_fraction(arrivals, mu=10, tau=1.0) == 0.0
    assert late_fraction([(0, 1.0 + 1e-9)], mu=10, tau=1.0) == 1.0


def test_partial_lateness():
    arrivals = [(0, 0.5), (1, 5.0), (2, 0.7), (3, 9.0)]
    assert late_fraction(arrivals, mu=1, tau=1.0) == pytest.approx(0.5)


def test_missing_packets_count_late():
    arrivals = [(0, 0.1)]
    frac = late_fraction(arrivals, mu=10, tau=1.0, total_packets=4)
    assert frac == pytest.approx(3 / 4)


def test_missing_ignored_when_disabled():
    arrivals = [(0, 0.1)]
    frac = late_fraction(arrivals, mu=10, tau=1.0, total_packets=4,
                         missing_as_late=False)
    assert frac == 0.0


def test_total_below_arrivals_rejected():
    with pytest.raises(ValueError):
        late_fraction([(0, 0.1), (1, 0.2)], mu=10, tau=1.0,
                      total_packets=1)


def test_late_fraction_non_increasing_in_tau():
    arrivals = [(i, i / 5 + (0.8 if i % 3 else 0.1))
                for i in range(50)]
    taus = [0.2, 0.5, 1.0, 2.0, 5.0]
    fracs = [late_fraction(arrivals, mu=5, tau=t) for t in taus]
    assert fracs == sorted(fracs, reverse=True)


def test_arrival_order_reassigns_slots():
    # Packet numbers scrambled but arrival times steady: playing in
    # arrival order sees no lateness even though packet 9 "should"
    # have played first.
    arrivals = [(9 - i, 0.1 + i / 10) for i in range(10)]
    assert arrival_order_late_fraction(arrivals, mu=10, tau=1.0) == 0.0


def test_arrival_order_matches_playback_order_when_sorted():
    arrivals = [(i, 0.3 + i / 10) for i in range(20)]
    playback = late_fraction(arrivals, mu=10, tau=0.2)
    arrival = arrival_order_late_fraction(arrivals, mu=10, tau=0.2)
    assert playback == pytest.approx(arrival)


def test_reordering_stats():
    arrivals = [(0, 0.0), (2, 0.1), (1, 0.2), (3, 0.3), (4, 0.4)]
    count, depth = reordering_stats(arrivals)
    assert count == 1
    assert depth == 1


def test_reordering_depth():
    arrivals = [(5, 0.0), (0, 0.1), (6, 0.2)]
    count, depth = reordering_stats(arrivals)
    assert count == 1
    assert depth == 5


def test_no_reordering_for_in_order():
    arrivals = [(i, i * 0.1) for i in range(10)]
    assert reordering_stats(arrivals) == (0, 0)


def test_playback_metrics_bundle():
    arrivals = [(0, 0.1), (1, 3.0), (2, 0.3)]
    metrics = playback_metrics(arrivals, mu=1.0, tau=1.0,
                               total_packets=4)
    assert metrics.total_packets == 4
    assert metrics.arrived_packets == 3
    assert metrics.late_packets == 2  # packet 1 late + 1 missing
    assert metrics.late_fraction == pytest.approx(0.5)
    # Packet 1 arrives after packet 2: one out-of-order arrival.
    assert metrics.out_of_order_packets == 1


def test_invalid_mu_rejected():
    with pytest.raises(ValueError):
        late_fraction([(0, 0.0)], mu=0, tau=1.0)
    with pytest.raises(ValueError):
        arrival_order_late_fraction([(0, 0.0)], mu=-1, tau=1.0)


def test_empty_arrivals():
    assert late_fraction([], mu=10, tau=1.0) == 0.0
    assert arrival_order_late_fraction([], mu=10, tau=1.0) == 0.0
    assert late_fraction([], mu=10, tau=1.0, total_packets=5) == 1.0
