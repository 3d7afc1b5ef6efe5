"""Section 7: exploring the parameter space with the model.

These helpers reproduce the knobs of the paper's exploration:

* ``sigma_a / mu`` is controlled either by fixing ``sigma * R`` (via p
  and T_O) and varying the RTT, or by fixing the flow parameters and
  varying the playback rate — exactly the two manners of Section 7.1.
* The achievable throughput ``sigma`` is the model chain's own
  stationary throughput, keeping the exploration self-consistent (the
  PFTK formula is available separately in :mod:`repro.model.pftk`).
* Heterogeneity (Section 7.2) follows the paper's two cases, with the
  second path's loss rate chosen by inverting the throughput so the
  aggregate matches the homogeneous scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.experiments.cache import ResultCache, resolve_cache
from repro.experiments.parallel import ModelTask, ReplicationExecutor
from repro.model.dmp_model import DmpModel, LateFractionEstimate
from repro.model.singlepath import SinglePathModel
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
        estimates: List[Optional[LateFractionEstimate]] = [
            store.get_model(task) if store else None for task in tasks]
        unsolved = [idx for idx, est in enumerate(estimates)
                    if est is None]
        solved = executor.solve_models(
            [tasks[idx] for idx in unsolved])
        for idx, estimate in zip(unsolved, solved):
            estimates[idx] = estimate
            if store:
                store.put_model(tasks[idx], estimate)

    curves: Dict[float, List[Tuple[float, float]]] = {
        ratio: [] for ratio in ratios}
    for (ratio, tau), solution in zip(grid, estimates):
        assert solution is not None  # every miss was solved above
        curves[ratio].append((tau, solution.late_fraction))
    return curves


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
    rows: List[RequiredDelayRow] = []
    for mu in mus:
        for p in losses:
            rtt = rtt_for_ratio(p, to_ratio, mu, ratio)
            if rtt > max_rtt:
                continue
            params = FlowParams(p=p, rtt=rtt, to_ratio=to_ratio)
            model = DmpModel([params, params], mu=mu, tau=1.0)
            required = model.required_startup_delay(
                threshold=threshold, taus=REQUIRED_DELAY_GRID,
                horizon_s=horizon_s, seed=seed)
            rows.append(RequiredDelayRow(
                label=f"mu={mu:g},p={p:g}", p=p, rtt=rtt,
                to_ratio=to_ratio, mu=mu, ratio=ratio,
                required_tau=required))
    return rows


def fig9b_rows(ratio: float = 1.6, to_ratio: float = 4.0,
               losses: Sequence[float] = (0.004, 0.02, 0.04),
               rtts: Sequence[float] = (0.1, 0.2, 0.3),
               threshold: float = DEFAULT_THRESHOLD,
               horizon_s: float = 20000.0,
               seed: int = 0) -> List[RequiredDelayRow]:
    """Vary mu to fix the ratio; one bar per (p, R)."""
    rows: List[RequiredDelayRow] = []
    for rtt in rtts:
        for p in losses:
            params = FlowParams(p=p, rtt=rtt, to_ratio=to_ratio)
            mu = mu_for_ratio(params, ratio)
            model = DmpModel([params, params], mu=mu, tau=1.0)
            required = model.required_startup_delay(
                threshold=threshold, taus=REQUIRED_DELAY_GRID,
                horizon_s=horizon_s, seed=seed)
            rows.append(RequiredDelayRow(
                label=f"R={rtt * 1000:g}ms,p={p:g}", p=p, rtt=rtt,
                to_ratio=to_ratio, mu=mu, ratio=ratio,
                required_tau=required))
    return rows


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
    scenarios: List[Tuple[int, float, float]] = []
    for po in (0.01, 0.04):
        scenarios.append((1, po, 0.150))
    for ro in (0.100, 0.300):
        scenarios.append((2, 0.02, ro))

    rows: List[HeterogeneityRow] = []
    for case, po, ro in scenarios:
        homo = FlowParams(p=po, rtt=ro, to_ratio=to_ratio)
        sigma_o = chain_throughput(homo)
        for gamma in gammas:
            if case == 1:
                hetero = _case1_paths(po, ro, to_ratio, gamma)
            else:
                hetero = _case2_paths(po, ro, to_ratio, gamma)
            for ratio in ratios:
                mu = 2.0 * sigma_o / ratio
                homo_model = DmpModel([homo, homo], mu=mu, tau=1.0)
                hetero_model = DmpModel(list(hetero), mu=mu, tau=1.0)
                req_homo = homo_model.required_startup_delay(
                    threshold=threshold, taus=REQUIRED_DELAY_GRID,
                    horizon_s=horizon_s, seed=seed)
                req_hetero = hetero_model.required_startup_delay(
                    threshold=threshold, taus=REQUIRED_DELAY_GRID,
                    horizon_s=horizon_s, seed=seed)
                rows.append(HeterogeneityRow(
                    case=case, gamma=gamma, ratio=ratio,
                    homo_params=homo, hetero_params=hetero, mu=mu,
                    required_homo=req_homo,
                    required_hetero=req_hetero))
    return rows


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


def _required_static(params: FlowParams, mu: float, threshold: float,
                     horizon_s: float, seed: int,
                     taus: Sequence[float]) -> Optional[float]:
    """Required delay for the static scheme: two mu/2 sub-videos."""
    model = SinglePathModel(params, mu=mu / 2.0, tau=1.0)
    return model.required_startup_delay(
        threshold=threshold, taus=taus, horizon_s=horizon_s, seed=seed)


def fig11_rows(to_ratio: float = 4.0,
               losses: Sequence[float] = (0.004, 0.02, 0.04),
               groups: Sequence[Tuple[float, float]] = (
                   (0.100, 1.6), (0.200, 1.6), (0.300, 1.6),
                   (0.300, 1.8), (0.300, 2.0)),
               threshold: float = DEFAULT_THRESHOLD,
               horizon_s: float = 20000.0,
               seed: int = 0) -> List[StaticComparisonRow]:
    """Required startup delay: DMP vs static (Section 7.4)."""
    rows: List[StaticComparisonRow] = []
    for rtt, ratio in groups:
        for p in losses:
            params = FlowParams(p=p, rtt=rtt, to_ratio=to_ratio)
            mu = mu_for_ratio(params, ratio)
            dmp_model = DmpModel([params, params], mu=mu, tau=1.0)
            req_dmp = dmp_model.required_startup_delay(
                threshold=threshold, taus=REQUIRED_DELAY_GRID,
                horizon_s=horizon_s, seed=seed)
            req_static = _required_static(
                params, mu, threshold, horizon_s, seed,
                STATIC_DELAY_GRID)
            rows.append(StaticComparisonRow(
                p=p, rtt=rtt, ratio=ratio, mu=mu,
                required_dmp=req_dmp, required_static=req_static))
    return rows
