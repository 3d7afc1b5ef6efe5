"""Section 7: exploring the parameter space with the model.

These helpers reproduce the knobs of the paper's exploration:

* ``sigma_a / mu`` is controlled either by fixing ``sigma * R`` (via p
  and T_O) and varying the RTT, or by fixing the flow parameters and
  varying the playback rate — exactly the two manners of Section 7.1.
* The achievable throughput ``sigma`` is the model chain's own
  stationary throughput, keeping the exploration self-consistent.
* Heterogeneity (Section 7.2) follows the paper's two cases.  Case 2
  chooses the second path's loss rate by inverting the chain's
  throughput (:func:`invert_chain_loss`) so the aggregate matches the
  homogeneous scenario; the paper inverts the PFTK formula instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Dict, Generator, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro import telemetry
from repro.experiments.cache import ResultCache, resolve_cache
from repro.experiments.parallel import ModelTask, ReplicationExecutor
from repro.experiments.runner import fetch_estimates
from repro.model.tcp_chain import FlowParams, TcpFlowChain

DEFAULT_THRESHOLD = 1e-4
REQUIRED_DELAY_GRID = tuple(float(t) for t in range(1, 41))
STATIC_DELAY_GRID = tuple(float(t) for t in range(1, 121))


@lru_cache(maxsize=512)
def _chain_cached(params: FlowParams) -> TcpFlowChain:
    return TcpFlowChain(params)


def chain_throughput(params: FlowParams) -> float:
    """Achievable throughput of one flow (cached chain solve)."""
    return _chain_cached(params).achievable_throughput()


def sigma_r(p: float, to_ratio: float, wmax: int = 32) -> float:
    """sigma * R: throughput per RTT, a function of (p, T_O) only."""
    return chain_throughput(
        FlowParams(p=p, rtt=1.0, to_ratio=to_ratio, wmax=wmax))


def rtt_for_ratio(p: float, to_ratio: float, mu: float, ratio: float,
                  k: int = 2, wmax: int = 32) -> float:
    """RTT making ``k`` homogeneous flows hit ``sigma_a/mu == ratio``.

    Section 7.1 manner (1): fix sigma*R via (p, T_O), vary R.
    """
    if ratio <= 0 or mu <= 0:
        raise ValueError("ratio and mu must be positive")
    return k * sigma_r(p, to_ratio, wmax) / (ratio * mu)


def mu_for_ratio(params: FlowParams, ratio: float, k: int = 2) -> float:
    """Playback rate making ``k`` flows hit ``sigma_a/mu == ratio``.

    Section 7.1 manner (2): fix (p, R, T_O), vary mu.
    """
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    return k * chain_throughput(params) / ratio


def invert_chain_loss(target_sigma: float, rtt: float,
                      to_ratio: float, wmax: int = 32,
                      p_lo: float = 1e-4, p_hi: float = 0.5,
                      tol: float = 1e-6) -> float:
    """Loss rate whose chain throughput equals ``target_sigma``.

    The chain analogue of PFTK inversion; used for Case-2 path
    heterogeneity where the paper sets p2 from the throughput formula.
    """
    def sigma(p: float) -> float:
        return chain_throughput(
            FlowParams(p=p, rtt=rtt, to_ratio=to_ratio, wmax=wmax))

    if sigma(p_lo) < target_sigma:
        raise ValueError(f"target {target_sigma} unreachable at p={p_lo}")
    if sigma(p_hi) > target_sigma:
        raise ValueError(f"target {target_sigma} exceeded at p={p_hi}")
    lo, hi = p_lo, p_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if sigma(mid) > target_sigma:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------
# Fig. 8 — diminishing gain from increasing sigma_a/mu
# ---------------------------------------------------------------------
def fig8_curves(p: float = 0.02, to_ratio: float = 4.0,
                mu: float = 25.0,
                ratios: Sequence[float] = (1.2, 1.4, 1.6, 1.8, 2.0),
                taus: Sequence[float] = tuple(range(2, 31, 2)),
                horizon_s: float = 20000.0,
                seed: int = 0,
                max_workers: Optional[int] = None,
                cache: Union[ResultCache, bool, None] = None) \
        -> Dict[float, List[Tuple[float, float]]]:
    """Late fraction vs startup delay for several sigma_a/mu ratios.

    The full (ratio, tau) grid of Monte-Carlo solves fans out over a
    process pool (``max_workers`` > 1, or the configured default) and
    consults the on-disk result cache; either way each point keeps the
    same seed, so output is identical to the serial sweep.
    """
    executor = ReplicationExecutor(max_workers=max_workers)
    store = resolve_cache(cache)
    grid: List[Tuple[float, float]] = [
        (ratio, float(tau)) for ratio in ratios for tau in taus]
    tasks: List[ModelTask] = []
    for ratio, tau in grid:
        rtt = rtt_for_ratio(p, to_ratio, mu, ratio)
        params = FlowParams(p=p, rtt=rtt, to_ratio=to_ratio)
        tasks.append(ModelTask(flows=(params, params), mu=mu, tau=tau,
                               horizon_s=horizon_s, seed=seed))
    tel = telemetry.current()
    with tel.span("sweep.fig8", points=len(grid), ratios=len(ratios),
                  taus=len(taus)):
        estimates = fetch_estimates(tasks, store, executor)

    curves: Dict[float, List[Tuple[float, float]]] = {
        ratio: [] for ratio in ratios}
    for (ratio, tau), solution in zip(grid, estimates):
        curves[ratio].append((tau, solution.late_fraction))
    return curves


# ---------------------------------------------------------------------
# Required startup delay — the lockstep search behind Figs. 9-11
# ---------------------------------------------------------------------
class DelayQuestion(NamedTuple):
    """Smallest startup delay on ``taus`` at which ``flows`` carry a
    video of rate ``mu`` with a late fraction below the threshold."""

    flows: Tuple[FlowParams, ...]
    mu: float
    taus: Tuple[float, ...] = REQUIRED_DELAY_GRID


def _search(question: DelayQuestion, threshold: float, horizon_s: float,
            seed: int) -> Generator[ModelTask, float, Optional[float]]:
    """Bisection of one question's grid (the late fraction is
    non-increasing in tau): the top, then the bottom, then midpoints.
    It yields each solve, is sent its late fraction, returns the answer.

    Near the threshold an estimate is dominated by rare deep-deficit
    excursions (timeout-backoff cascades), so each decision is
    sequential: a clearly decisive solve settles it, otherwise up to
    four independent solves (seeds ``seed + 7919 * i``) are pooled.
    """
    taus = sorted(question.taus)

    def satisfies(tau: float) -> Generator[ModelTask, float, bool]:
        total = 0.0
        for i in range(4):
            total += yield ModelTask(
                flows=question.flows, mu=question.mu, tau=tau,
                horizon_s=horizon_s, seed=seed + 7919 * i)
            pooled = total / (i + 1)
            # Decisive once the pooled mean sits far from the line.
            if pooled >= 3.0 * threshold:
                return False
            if i >= 1 and pooled < threshold / 3.0:
                return True
            if i == 0 and pooled < threshold / 30.0:
                return True
        return pooled < threshold

    lo, hi = 0, len(taus) - 1
    if not (yield from satisfies(taus[hi])):
        return None
    if (yield from satisfies(taus[lo])):
        return taus[lo]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (yield from satisfies(taus[mid])):
            hi = mid
        else:
            lo = mid
    return taus[hi]


def required_startup_delays(questions: Sequence[DelayQuestion],
                            threshold: float = DEFAULT_THRESHOLD,
                            horizon_s: float = 20000.0, seed: int = 0,
                            max_workers: Optional[int] = None,
                            cache: Union[ResultCache, bool, None] = None
                            ) -> List[Optional[float]]:
    """Required startup delay per question (None when even the top of
    its grid misses the threshold), in question order.

    Every question's search advances in lockstep: each round's probes
    are one :func:`fetch_estimates` batch of ``ModelTask`` solves, so
    they fan out over the configured workers and consult the result
    cache.  Each probe keeps its own seed, so the answers do not depend
    on the batching, the worker count or the cache.
    """
    executor = ReplicationExecutor(max_workers=max_workers)
    store = resolve_cache(cache)
    searches = [_search(question, threshold, horizon_s, seed)
                for question in questions]
    answers: List[Optional[float]] = [None] * len(searches)
    probes: Dict[int, ModelTask] = {
        idx: next(search) for idx, search in enumerate(searches)}
    while probes:
        batch = list(probes)
        estimates = fetch_estimates([probes[idx] for idx in batch],
                                    store, executor)
        for idx, estimate in zip(batch, estimates):
            try:
                probes[idx] = searches[idx].send(estimate.late_fraction)
            except StopIteration as done:
                answers[idx] = done.value
                del probes[idx]
    return answers


# ---------------------------------------------------------------------
# Fig. 9 — required startup delay, homogeneous paths
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class RequiredDelayRow:
    label: str
    p: float
    rtt: float
    to_ratio: float
    mu: float
    ratio: float
    required_tau: Optional[float]


def fig9a_rows(ratio: float = 1.6, to_ratio: float = 4.0,
               losses: Sequence[float] = (0.004, 0.02, 0.04),
               mus: Sequence[float] = (25.0, 50.0, 100.0),
               threshold: float = DEFAULT_THRESHOLD,
               horizon_s: float = 20000.0,
               max_rtt: float = 0.6,
               seed: int = 0) -> List[RequiredDelayRow]:
    """Vary RTT to fix the ratio; one bar per (p, mu).

    The paper omits (p=0.004, mu=25) because the implied RTT exceeds
    600 ms; ``max_rtt`` reproduces that rule.
    """
    bars = [(f"mu={mu:g},p={p:g}",
             FlowParams(p=p, rtt=rtt_for_ratio(p, to_ratio, mu, ratio),
                        to_ratio=to_ratio), mu)
            for mu in mus for p in losses]
    return _homogeneous_rows([bar for bar in bars if bar[1].rtt <= max_rtt],
                             ratio, threshold, horizon_s, seed)


def fig9b_rows(ratio: float = 1.6, to_ratio: float = 4.0,
               losses: Sequence[float] = (0.004, 0.02, 0.04),
               rtts: Sequence[float] = (0.1, 0.2, 0.3),
               threshold: float = DEFAULT_THRESHOLD,
               horizon_s: float = 20000.0,
               seed: int = 0) -> List[RequiredDelayRow]:
    """Vary mu to fix the ratio; one bar per (p, R)."""
    flows = [FlowParams(p=p, rtt=rtt, to_ratio=to_ratio)
             for rtt in rtts for p in losses]
    return _homogeneous_rows(
        [(f"R={f.rtt * 1000:g}ms,p={f.p:g}", f, mu_for_ratio(f, ratio))
         for f in flows], ratio, threshold, horizon_s, seed)


def _homogeneous_rows(bars: Sequence[Tuple[str, FlowParams, float]],
                      ratio: float, threshold: float, horizon_s: float,
                      seed: int) -> List[RequiredDelayRow]:
    """One row per ``(label, flow, mu)`` bar: two such flows."""
    required = required_startup_delays(
        [DelayQuestion((params, params), mu) for _, params, mu in bars],
        threshold=threshold, horizon_s=horizon_s, seed=seed)
    return [RequiredDelayRow(label=label, p=params.p, rtt=params.rtt,
                             to_ratio=params.to_ratio, mu=mu,
                             ratio=ratio, required_tau=tau)
            for (label, params, mu), tau in zip(bars, required)]


# ---------------------------------------------------------------------
# Fig. 10 — path heterogeneity
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class HeterogeneityRow:
    case: int
    gamma: float
    ratio: float
    homo_params: FlowParams
    hetero_params: Tuple[FlowParams, FlowParams]
    mu: float
    required_homo: Optional[float]
    required_hetero: Optional[float]


def _case1_paths(po: float, ro: float, to: float,
                 gamma: float) -> Tuple[FlowParams, FlowParams]:
    """Case 1: RTTs differ, aggregate throughput preserved exactly."""
    r1 = gamma * ro
    r2 = ro / (2.0 - 1.0 / gamma)
    return (FlowParams(p=po, rtt=r1, to_ratio=to),
            FlowParams(p=po, rtt=r2, to_ratio=to))


def _case2_paths(po: float, ro: float, to: float,
                 gamma: float) -> Tuple[FlowParams, FlowParams]:
    """Case 2: loss rates differ; p2 from throughput inversion."""
    sigma_o = chain_throughput(FlowParams(p=po, rtt=ro, to_ratio=to))
    p1 = gamma * po
    sigma_1 = chain_throughput(FlowParams(p=p1, rtt=ro, to_ratio=to))
    target_2 = 2.0 * sigma_o - sigma_1
    p2 = invert_chain_loss(target_2, ro, to)
    return (FlowParams(p=p1, rtt=ro, to_ratio=to),
            FlowParams(p=p2, rtt=ro, to_ratio=to))


def fig10_rows(gammas: Sequence[float] = (1.5, 2.0),
               ratios: Sequence[float] = (1.4, 1.6, 1.8),
               to_ratio: float = 4.0,
               threshold: float = DEFAULT_THRESHOLD,
               horizon_s: float = 20000.0,
               seed: int = 0) -> List[HeterogeneityRow]:
    """Required startup delay under homogeneous vs heterogeneous paths.

    The paper's 24 settings: Case 1 with po in {0.01, 0.04} (Ro=150ms),
    Case 2 with Ro in {100, 300} ms (po=0.02), each with gamma in
    {1.5, 2} and sigma_a/mu in {1.4, 1.6, 1.8}.
    """
    scenarios = [(1, 0.01, 0.150), (1, 0.04, 0.150),
                 (2, 0.02, 0.100), (2, 0.02, 0.300)]
    cells: List[Tuple[int, float, float, Tuple[FlowParams, FlowParams],
                      DelayQuestion, DelayQuestion]] = []
    for case, po, ro in scenarios:
        homo = FlowParams(p=po, rtt=ro, to_ratio=to_ratio)
        sigma_o = chain_throughput(homo)
        paths = _case1_paths if case == 1 else _case2_paths
        for gamma in gammas:
            hetero = paths(po, ro, to_ratio, gamma)
            for ratio in ratios:
                mu = 2.0 * sigma_o / ratio
                cells.append((case, gamma, ratio, hetero,
                              DelayQuestion((homo, homo), mu),
                              DelayQuestion(hetero, mu)))
    # A homogeneous question does not depend on gamma: ask it once.
    questions = list(dict.fromkeys(
        question for cell in cells for question in cell[4:]))
    required = dict(zip(questions, required_startup_delays(
        questions, threshold=threshold, horizon_s=horizon_s, seed=seed)))
    return [HeterogeneityRow(
        case=case, gamma=gamma, ratio=ratio, homo_params=homo_q.flows[0],
        hetero_params=pair, mu=homo_q.mu, required_homo=required[homo_q],
        required_hetero=required[hetero_q])
        for case, gamma, ratio, pair, homo_q, hetero_q in cells]


# ---------------------------------------------------------------------
# Fig. 11 — DMP vs static streaming
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class StaticComparisonRow:
    p: float
    rtt: float
    ratio: float
    mu: float
    required_dmp: Optional[float]
    required_static: Optional[float]


def fig11_rows(to_ratio: float = 4.0,
               losses: Sequence[float] = (0.004, 0.02, 0.04),
               groups: Sequence[Tuple[float, float]] = (
                   (0.100, 1.6), (0.200, 1.6), (0.300, 1.6),
                   (0.300, 1.8), (0.300, 2.0)),
               threshold: float = DEFAULT_THRESHOLD,
               horizon_s: float = 20000.0,
               seed: int = 0) -> List[StaticComparisonRow]:
    """Required startup delay: DMP vs static (Section 7.4).

    Static streaming over two homogeneous paths is two sub-videos of
    rate mu/2, one per path: a single flow at mu/2 answers it.
    """
    bars = [(FlowParams(p=p, rtt=rtt, to_ratio=to_ratio), ratio)
            for rtt, ratio in groups for p in losses]
    mus = [mu_for_ratio(params, ratio) for params, ratio in bars]
    required = iter(required_startup_delays(
        [question for (params, _), mu in zip(bars, mus) for question in (
            DelayQuestion((params, params), mu),
            DelayQuestion((params,), mu / 2.0, STATIC_DELAY_GRID))],
        threshold=threshold, horizon_s=horizon_s, seed=seed))
    return [StaticComparisonRow(
        p=params.p, rtt=params.rtt, ratio=ratio, mu=mu,
        required_dmp=next(required), required_static=next(required))
        for (params, ratio), mu in zip(bars, mus)]
