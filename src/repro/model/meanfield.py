"""Mean-field population backend: N sessions as a deterministic ODE.

The packet simulator's cost is O(N * events): the committed scaling
curve (266k -> 158k events/s from N=1 to N=200 sessions) puts a
CDN-pop population of 10^6 sessions four orders of magnitude out of
reach.  McDonald & Reynier's mean-field limit (PAPERS.md) is the way
around it: as the number of TCP flows through one RED buffer grows,
every *per-flow* quantity converges to a deterministic process driven
by a queue ODE, so population metrics become a fixed-cost solve whose
wall time is independent of N.

The state here is intensive (per-session), so N never enters the
integration except through per-session shares — the scaled limit is
exactly N-invariant by construction:

* a window *density* per flow class over w = 1..wmax (video flows,
  app-capped at ``mu/paths_per_session``; persistent background flows,
  always backlogged) plus a timeout compartment per class;
* window transport at 1/(2R) per window per second (one increment per
  two RTTs, delayed ACKs), loss at rate ``p(t) * rate_w`` moving mass
  to ``max(w // 2, 1)`` (fast recovery, w >= 4) or the timeout
  compartment (w < 4), timeout exit back to w = 2 after
  ``max(min_rto, to_ratio * R)`` seconds;
* the McDonald-Reynier queue ODE ``dq/dt = A(t)(1 - p) - C`` with the
  RED drop profile of :class:`repro.sim.queueing.REDQueue`
  (``min_th = B/5``, ``max_th = B/2``, ``max_p = 0.1``, hard drop
  above ``max_th``), and drop-tail as the hard-limit case — loss only
  by buffer overflow, ``p = max(0, 1 - C/A)`` at the boundary;
* RTT coupling ``R(t) = base_rtt + q(t)/C``.

The per-session delivered-rate trace (shifted by the one-way delay)
feeds :func:`repro.model.fluid.late_fraction_from_trace`, giving the
per-tau late fractions the packet campaigns measure — and Fig 8-style
(ratio, tau) grids at any N, including N=10^6, in seconds
(:func:`late_fraction_grid`).

Deliberate approximations (the agreement suite pins the resulting
band against :class:`repro.core.campaign.MultiSessionCampaign` at
N = 10/100/1000): sessions are treated as synchronized and
statistically exchangeable (start staggering/churn only shifts each
session's private clock), slow start is collapsed into CA re-entry at
w = 2, RED's averaged queue is approximated by the instantaneous one,
timeout backoff beyond the first stage is ignored, and HTTP background
(short transfers with think times) is not modelled — only persistent
FTP-like flows count toward ``n_background``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.model.fluid import late_fraction_from_trace

FloatArray = npt.NDArray[np.float64]

#: Campaign solvers (``cli campaign --backend``, the scenario
#: ``backend`` key): the packet-level simulator or this ODE system.
BACKENDS: Tuple[str, ...] = ("packet", "meanfield")

#: Queue disciplines with a mean-field drop profile.  PIE/FQ-PIE keep
#: controller state per *packet interval* that has no clean fluid
#: analogue here; campaigns needing them stay on the packet backend.
MEANFIELD_DISCIPLINES: Tuple[str, ...] = ("droptail", "red")

#: RED profile constants, matching ``repro.sim.queueing.REDQueue``.
RED_MIN_TH_FRACTION = 0.2
RED_MAX_TH_FRACTION = 0.5
RED_MAX_P = 0.1


@dataclass(frozen=True)
class MeanFieldSpec:
    """One mean-field population problem (hashed into cache keys).

    Everything is in packets and seconds; ``bandwidth_pps`` and
    ``buffer_pkts`` are the *total* bottleneck capacity and buffer
    (the solver divides by ``n_sessions`` internally, which is the
    only place N appears).
    """

    n_sessions: int
    mu: float
    bandwidth_pps: float
    buffer_pkts: float
    queue_discipline: str = "droptail"
    paths_per_session: int = 2
    n_background: int = 0
    base_rtt_s: float = 0.06
    duration_s: float = 300.0
    warmup_s: float = 20.0
    drain_s: float = 60.0
    wmax: int = 32
    to_ratio: float = 2.0
    min_rto_s: float = 0.2
    dt: float = 0.005

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError("need n_sessions >= 1")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.bandwidth_pps <= 0 or self.buffer_pkts <= 0:
            raise ValueError("bandwidth and buffer must be positive")
        if self.queue_discipline not in MEANFIELD_DISCIPLINES:
            raise ValueError(
                f"mean-field backend supports disciplines "
                f"{list(MEANFIELD_DISCIPLINES)}, "
                f"not {self.queue_discipline!r}")
        if self.paths_per_session < 1:
            raise ValueError("need paths_per_session >= 1")
        if self.n_background < 0:
            raise ValueError("n_background must be non-negative")
        if self.base_rtt_s <= 0:
            raise ValueError("base_rtt_s must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.warmup_s < 0 or self.drain_s < 0:
            raise ValueError("warmup_s/drain_s must be non-negative")
        if self.wmax < 4:
            raise ValueError("need wmax >= 4 (fast-recovery threshold)")
        if self.to_ratio <= 0 or self.min_rto_s < 0:
            raise ValueError("invalid timeout parameters")
        if not 0 < self.dt <= 0.05:
            raise ValueError("need 0 < dt <= 0.05 (Euler stability)")


@dataclass(frozen=True)
class MeanFieldSolution:
    """The solved population trajectory, on the session clock.

    ``times`` spans ``[0, duration_s + drain_s)`` with step
    ``spec.dt`` (t = 0 is the synchronized session start, after the
    background warmup).  ``goodput_pps`` is the per-session delivered
    rate *at the client* (shifted by the one-way delay),
    ``queue_pkts`` the per-session share of the bottleneck queue and
    ``drop_prob`` the instantaneous drop probability.
    """

    spec: MeanFieldSpec
    times: FloatArray
    goodput_pps: FloatArray
    queue_pkts: FloatArray
    drop_prob: FloatArray
    #: Worst absolute drift of the total window-density mass (density
    #: plus timeout compartments, per class) from its initial value
    #: over the whole integration.  The transport operator conserves
    #: mass exactly in exact arithmetic; this bounds the accumulated
    #: float error and is pinned near zero by the property suite.
    mass_error: float = 0.0

    def late_fraction(self, tau: float) -> float:
        """Population (= per-session) late fraction at delay ``tau``."""
        return late_fraction_from_trace(
            self.goodput_pps, self.spec.mu, tau, self.spec.dt,
            video_duration_s=self.spec.duration_s)

    def late_fractions(self, taus: Sequence[float]) \
            -> Dict[float, float]:
        """Late fraction per startup delay (tau -> fraction)."""
        return {float(tau): self.late_fraction(float(tau))
                for tau in taus}

    def population(self, tau: float) -> Dict[str, float]:
        """Population summary in the shape of
        :meth:`repro.core.campaign.CampaignResult.population` — in the
        mean-field limit every session sees the same trajectory, so
        the distribution is degenerate."""
        value = self.late_fraction(tau)
        return {"mean": value, "min": value, "max": value,
                "p50": value, "p95": value, "p99": value}

    @property
    def mean_queue_pkts(self) -> float:
        """Time-averaged total bottleneck queue (packets)."""
        return float(np.mean(self.queue_pkts)) * self.spec.n_sessions

    @property
    def mean_drop_prob(self) -> float:
        """Arrival-weighted would be fairer; time-averaged is stable."""
        return float(np.mean(self.drop_prob))


def solve_meanfield(spec: MeanFieldSpec) -> MeanFieldSolution:
    """Integrate the mean-field system for one population problem.

    Fixed-step explicit Euler on per-session (intensive) state: cost
    depends on the horizon and ``dt``, never on ``spec.n_sessions``.
    Pure float arithmetic, no RNG, no wall clock — equal specs give
    bit-identical solutions.
    """
    n = spec.n_sessions
    k = spec.paths_per_session
    capacity = spec.bandwidth_pps / n       # per-session share, pkts/s
    buffer_share = spec.buffer_pkts / n     # per-session share, pkts
    background = spec.n_background / n      # background flows/session
    app_cap = spec.mu / k                   # per-path video rate cap
    dt = spec.dt
    red = spec.queue_discipline == "red"
    min_th = RED_MIN_TH_FRACTION * buffer_share
    max_th = RED_MAX_TH_FRACTION * buffer_share

    wmax = spec.wmax
    w = np.arange(1, wmax + 1, dtype=np.float64)
    # Loss outcome per window: fast recovery halves w >= 4 down to
    # max(w // 2, 1); w < 4 cannot raise three duplicate ACKs and
    # times out instead.
    hi_mask = w >= 4.0
    lo_mask = ~hi_mask
    halving = np.zeros((wmax, wmax))
    for source in range(4, wmax + 1):
        halving[max(source // 2, 1) - 1, source - 1] = 1.0
    scatter = halving.T  # loss-row @ scatter adds the halved mass

    # Row 0: the session's video flows (mass k); row 1: persistent
    # background flows (mass n_background / n).  Everything starts in
    # CA at w = 2.
    density = np.zeros((2, wmax))
    density[0, 1] = float(k)
    density[1, 1] = background
    timeout_mass = np.zeros(2)
    caps = np.array([[app_cap], [np.inf]])
    queue = 0.0

    warmup_steps = int(round(spec.warmup_s / dt))
    active_steps = int(round((spec.duration_s + spec.drain_s) / dt))
    goodput = np.zeros(active_steps)
    queue_trace = np.zeros(active_steps)
    drop_trace = np.zeros(active_steps)
    delay_trace = np.zeros(active_steps)
    base_one_way = spec.base_rtt_s / 2.0

    tiny = 1e-300
    initial_mass = float(density.sum() + timeout_mass.sum())
    mass_error = 0.0
    for step in range(warmup_steps + active_steps):
        video_active = step >= warmup_steps
        rtt = spec.base_rtt_s + queue / capacity
        rates = np.minimum(w / rtt, caps)
        if not video_active:
            rates[0, :] = 0.0
        arrival = float((density * rates).sum())

        # -- queue update and effective drop probability --------------
        arr = arrival * dt
        early_p = 0.0
        if red and arr > 0:
            if queue >= max_th:
                early_p = 1.0
            elif queue > min_th:
                early_p = RED_MAX_P * (queue - min_th) \
                    / (max_th - min_th)
        kept = arr * (1.0 - early_p)
        room = buffer_share - queue + capacity * dt
        if kept > room:
            kept = max(room, 0.0)
        drop_p = 1.0 - kept / arr if arr > 0 else 0.0
        next_queue = max(queue + kept - capacity * dt, 0.0)

        if video_active:
            idx = step - warmup_steps
            goodput[idx] = float(
                (density[0] * rates[0]).sum()) * (1.0 - drop_p)
            queue_trace[idx] = queue
            drop_trace[idx] = drop_p
            delay_trace[idx] = base_one_way + queue / capacity

        # -- window-density transport ---------------------------------
        growth = dt / (2.0 * rtt)
        can_grow = (w / rtt) < caps
        can_grow[:, -1] = False
        if not video_active:
            can_grow[0, :] = False
        up = density * growth * can_grow
        loss = density * (drop_p * dt) * rates
        out = up + loss
        factor = np.clip(density / np.maximum(out, tiny), 0.0, 1.0)
        up *= factor
        loss *= factor
        density -= up + loss
        density[:, 1:] += up[:, :-1]
        density += (loss * hi_mask) @ scatter
        timeout_in = (loss * lo_mask).sum(axis=1)
        timeout_s = max(spec.min_rto_s, spec.to_ratio * rtt)
        timeout_out = timeout_mass * min(dt / timeout_s, 1.0)
        timeout_mass += timeout_in - timeout_out
        density[:, 1] += timeout_out
        queue = next_queue
        drift = abs(float(density.sum() + timeout_mass.sum())
                    - initial_mass)
        if drift > mass_error:
            mass_error = drift

    # Shift delivery by the (monotone-arrival-time) one-way delay and
    # resample back onto the uniform session-clock grid.
    times = np.arange(active_steps) * dt
    cumulative = np.cumsum(goodput) * dt
    arrival_times = times + delay_trace
    shifted = np.interp(times, arrival_times, cumulative,
                        left=0.0, right=float(cumulative[-1])) \
        if active_steps else cumulative
    rates_shifted = np.maximum(
        np.diff(shifted, prepend=0.0) / dt, 0.0)

    return MeanFieldSolution(
        spec=spec, times=times, goodput_pps=rates_shifted,
        queue_pkts=queue_trace, drop_prob=drop_trace,
        mass_error=mass_error)


def late_fraction_grid(base: MeanFieldSpec,
                       ratios: Sequence[float],
                       taus: Sequence[float]) -> List[Dict[str, object]]:
    """Fig 8-style (provisioning ratio, tau) late-fraction grid.

    The provisioning ratio scales the *per-session* capacity share
    against the playback rate: ``bandwidth_pps = ratio * mu * N``.
    One ODE solve per ratio; every tau is post-processing on the same
    trace, so a full grid at N = 10^6 costs seconds.
    """
    rows: List[Dict[str, object]] = []
    for ratio in ratios:
        if ratio <= 0:
            raise ValueError("provisioning ratios must be positive")
        spec = replace(base, bandwidth_pps=float(
            ratio * base.mu * base.n_sessions))
        solution = solve_meanfield(spec)
        rows.append({
            "ratio": float(ratio),
            "late_fraction": {f"{float(tau):g}":
                              solution.late_fraction(float(tau))
                              for tau in taus},
            "mean_drop_prob": solution.mean_drop_prob,
            "mean_queue_pkts": solution.mean_queue_pkts,
        })
    return rows
