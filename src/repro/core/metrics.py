"""Playback metrics: late-packet fractions and reordering analysis.

Definitions follow Section 2 of the paper:

* packet ``i`` is generated at ``i / mu`` and played back at
  ``tau + i / mu``;
* a packet is *late* when it arrives after its playback time;
* the *arrival-order* variant (used in Figs. 4a/5a/7a to justify the
  model's in-order assumption) plays the j-th arriving packet at the
  j-th playback instant regardless of its number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

Arrivals = Sequence[Tuple[int, float]]


@dataclass(frozen=True)
class PlaybackMetrics:
    """Summary of one streaming run evaluated at one startup delay."""

    tau: float
    mu: float
    total_packets: int
    arrived_packets: int
    late_packets: int
    late_fraction: float
    arrival_order_late_packets: int
    arrival_order_late_fraction: float
    out_of_order_packets: int
    max_reorder_depth: int


def late_fraction(arrivals: Arrivals, mu: float, tau: float,
                  total_packets: Optional[int] = None,
                  missing_as_late: bool = True) -> float:
    """Fraction of late packets, playback (packet-number) order."""
    count, late = _late_counts(arrivals, mu, tau, total_packets,
                               missing_as_late)
    return late / count if count else 0.0


def _late_counts(arrivals: Arrivals, mu: float, tau: float,
                 total_packets: Optional[int],
                 missing_as_late: bool) -> Tuple[int, int]:
    if mu <= 0:
        raise ValueError("mu must be positive")
    late = 0
    for number, time in arrivals:
        if time > tau + number / mu:
            late += 1
    count = len(arrivals)
    if total_packets is not None:
        if total_packets < count:
            raise ValueError("total_packets below observed arrivals")
        if missing_as_late:
            late += total_packets - count
        count = total_packets
    return count, late


def arrival_order_late_fraction(arrivals: Arrivals, mu: float,
                                tau: float) -> float:
    """Fraction of late packets when playing in arrival order.

    The j-th arriving packet (j = 0, 1, ...) is played at
    ``tau + j / mu``; it is late when its arrival time exceeds that.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    times = sorted(time for _, time in arrivals)
    late = sum(1 for j, time in enumerate(times) if time > tau + j / mu)
    return late / len(times) if times else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` at ``q`` in [0, 1].

    Matches numpy's default ("linear") method: the quantile sits at
    fractional rank ``q * (n - 1)`` of the sorted sample.  Campaigns
    use this for population percentiles (p50/p95/p99 of per-session
    late fractions) without pulling numpy into the core layer.

    Whole-number ranks — including the single-sample case and the
    q = 0 / q = 1 endpoints — return the order statistic itself with
    no interpolation arithmetic: ``lo * 1.0 + hi * 0.0`` is *not* a
    no-op when a neighbour is infinite (``0.0 * inf`` is NaN), so the
    endpoints of a sample containing ``inf`` used to come back NaN.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1]: {q}")
    if not values:
        raise ValueError("quantile of an empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(position)
    fraction = position - lower
    if fraction == 0.0:
        return ordered[lower]
    lo = ordered[lower]
    hi = ordered[min(lower + 1, len(ordered) - 1)]
    # Clamped: the rounded blend of two neighbours can land one ulp
    # outside them (or off their common value when they are equal).
    return min(max(lo * (1.0 - fraction) + hi * fraction, lo), hi)


def reordering_stats(arrivals: Arrivals) -> Tuple[int, int]:
    """(count, max depth) of out-of-order arrivals.

    A packet is out of order if a higher-numbered packet arrived before
    it; its reorder depth is how far below the running maximum packet
    number it is.
    """
    ordered = sorted(arrivals, key=lambda item: item[1])
    running_max = -1
    count = 0
    max_depth = 0
    for number, _ in ordered:
        if number < running_max:
            count += 1
            depth = running_max - number
            if depth > max_depth:
                max_depth = depth
        else:
            running_max = number
    return count, max_depth


@dataclass(frozen=True)
class GlitchStats:
    """Runs of consecutive late packets in playback order.

    A late packet "typically leads to a glitch during playback"
    (Section 2); human perception cares about how long glitches last,
    not only how many packets are late, so the run-length distribution
    is reported alongside the late fraction.
    """

    glitch_count: int
    late_packets: int
    mean_length: float
    max_length: int


def glitch_statistics(arrivals: Arrivals, mu: float, tau: float,
                      total_packets: Optional[int] = None,
                      missing_as_late: bool = True) -> GlitchStats:
    """Maximal runs of consecutive late packets (playback order)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    arrival_of = dict(arrivals)
    count = total_packets if total_packets is not None \
        else (max(arrival_of) + 1 if arrival_of else 0)
    if total_packets is not None and total_packets < len(arrival_of):
        raise ValueError("total_packets below observed arrivals")

    runs: List[int] = []
    current = 0
    late_total = 0
    for number in range(count):
        time = arrival_of.get(number)
        if time is None:
            late = missing_as_late
        else:
            late = time > tau + number / mu
        if late:
            current += 1
            late_total += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)

    if not runs:
        return GlitchStats(glitch_count=0, late_packets=0,
                           mean_length=0.0, max_length=0)
    return GlitchStats(
        glitch_count=len(runs),
        late_packets=late_total,
        mean_length=late_total / len(runs),
        max_length=max(runs))


def playback_metrics(arrivals: Arrivals, mu: float, tau: float,
                     total_packets: Optional[int] = None,
                     missing_as_late: bool = True) -> PlaybackMetrics:
    """Evaluate every playback metric for one startup delay."""
    count, late = _late_counts(arrivals, mu, tau, total_packets,
                               missing_as_late)
    ao_frac = arrival_order_late_fraction(arrivals, mu, tau)
    ao_late = round(ao_frac * len(arrivals))
    ooo_count, ooo_depth = reordering_stats(arrivals)
    return PlaybackMetrics(
        tau=tau, mu=mu,
        total_packets=count,
        arrived_packets=len(arrivals),
        late_packets=late,
        late_fraction=late / count if count else 0.0,
        arrival_order_late_packets=ao_late,
        arrival_order_late_fraction=ao_frac,
        out_of_order_packets=ooo_count,
        max_reorder_depth=ooo_depth)
