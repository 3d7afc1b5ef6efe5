"""Replicated validation runs (the paper's 30-run methodology).

The paper runs each setting 30 times for 10,000 simulated seconds.
That is affordable in ns-2's C++ core but not in a pure-Python packet
simulator, so the harness scales by profile:

====== ===== ============ =================================
profile runs duration (s) selected by
====== ===== ============ =================================
quick      3         300  REPRO_SCALE=quick (default)
full       8         600  REPRO_SCALE=full
paper     30       10000  REPRO_SCALE=paper
====== ===== ============ =================================

Shapes (model-vs-simulation agreement within the paper's own 10x band,
monotone decay in tau, DMP > static) are preserved at every profile;
absolute resolution of very small late fractions improves with scale.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar, Union)

from repro import telemetry
from repro.experiments.cache import (ResultCache, resolve_cache,
                                     run_late_fractions)
from repro.experiments.configs import Setting
from repro.experiments.parallel import (
    ModelTask,
    ReplicationExecutor,
    RunSpec,
)
from repro.model.dmp_model import LateFractionEstimate
from repro.model.tcp_chain import FlowParams

DEFAULT_TAUS = (4.0, 6.0, 8.0, 10.0)

# Floor for measured loss rates fed into the model: a run short enough
# to observe zero loss events still needs a valid FlowParams.
MIN_MEASURED_P = 1e-4
MIN_MEASURED_TO = 1.0

# Loss model used when the chain is fed parameters measured on THIS
# simulator: drop-tail losses here are mostly single-packet events,
# which the "sparse" variant captures (calibrated to within ~7% of the
# simulator's backlogged-flow throughput; the paper-faithful "bursty"
# variant sits ~10% low).  Section-7 sweeps keep "bursty".
MEASURED_LOSS_MODEL = "sparse"

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class ScaleProfile:
    name: str
    runs: int
    duration_s: float
    model_horizon_s: float

    def __post_init__(self) -> None:
        # model_horizon_s may be 0: a profile that never solves the model.
        if self.runs < 1 or not 0.0 < self.duration_s < math.inf \
                or not 0.0 <= self.model_horizon_s < math.inf:
            raise ValueError(
                f"bad scale profile {self!r}: need runs >= 1, finite "
                "duration_s > 0 and model_horizon_s >= 0")


_PROFILES = {
    "quick": ScaleProfile("quick", runs=3, duration_s=300.0,
                          model_horizon_s=20000.0),
    "full": ScaleProfile("full", runs=8, duration_s=600.0,
                         model_horizon_s=40000.0),
    "paper": ScaleProfile("paper", runs=30, duration_s=10000.0,
                          model_horizon_s=100000.0),
}


def scale_profile(name: Optional[str] = None) -> ScaleProfile:
    """Resolve the scale profile (argument > $REPRO_SCALE > quick)."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "quick")
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale profile {name!r}; "
            f"choose from {sorted(_PROFILES)}") from None


@dataclass
class TauPoint:
    """Aggregated result at one startup delay."""

    tau: float
    sim_mean: float
    sim_ci95: float
    sim_arrival_order_mean: float
    model_f: float
    model_stderr: float

    @property
    def match(self) -> bool:
        """The paper's acceptance test: CI hit or within 10x."""
        lo = self.sim_mean - self.sim_ci95
        hi = self.sim_mean + self.sim_ci95
        if lo <= self.model_f <= hi:
            return True
        if self.sim_mean <= 0.0:
            return self.model_f < 1e-3
        if self.model_f <= 0.0:
            return self.sim_mean < 1e-3
        ratio = self.model_f / self.sim_mean
        return 0.1 < ratio < 10.0


@dataclass
class ReplicatedRun:
    """Everything measured for one validation setting."""

    setting: Setting
    profile: ScaleProfile
    scheme: str
    flow_params: List[FlowParams]
    measured: List[Dict[str, float]]
    points: List[TauPoint]
    per_run_late: Dict[float, List[float]] = field(default_factory=dict)

    def point(self, tau: float) -> TauPoint:
        for pt in self.points:
            if pt.tau == tau:
                return pt
        raise KeyError(f"no point at tau={tau}")

    @property
    def all_match(self) -> bool:
        return all(pt.match for pt in self.points)


# Student-t 97.5% quantiles keyed by degrees of freedom; intermediate
# dof are interpolated linearly in 1/dof (the standard textbook rule),
# with 1.96 as the dof -> infinity anchor.
_T_TABLE = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
            6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
            11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
            20: 2.086, 25: 2.060, 30: 2.042, 40: 2.021, 60: 2.000,
            120: 1.980}
_T_INF = 1.960


def _t_ci95(dof: int) -> float:
    """97.5% Student-t quantile for ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    exact = _T_TABLE.get(dof)
    if exact is not None:
        return exact
    keys = sorted(_T_TABLE)
    hi_key = keys[-1]
    if dof > hi_key:
        lo_key, lo_t = hi_key, _T_TABLE[hi_key]
        hi_inv, hi_t = 0.0, _T_INF
    else:
        lo_key = max(k for k in keys if k < dof)
        hi_key = min(k for k in keys if k > dof)
        lo_t = _T_TABLE[lo_key]
        hi_inv, hi_t = 1.0 / hi_key, _T_TABLE[hi_key]
    lo_inv = 1.0 / lo_key
    frac = (lo_inv - 1.0 / dof) / (lo_inv - hi_inv)
    return lo_t + frac * (hi_t - lo_t)


def _mean_ci95(values: Sequence[float]) -> Tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, float("inf")
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, _t_ci95(n - 1) * math.sqrt(var / n)


def check_taus(taus: Sequence[float]) -> List[float]:
    """The startup delays as floats; each must be finite and >= 0."""
    out = [float(tau) for tau in taus]
    bad = [tau for tau in out if not 0.0 <= tau < math.inf]
    if bad:
        raise ValueError(f"startup delays must be finite and "
                         f"non-negative, got {bad}")
    return out


def _through_cache(items: Sequence[T], get: Callable[[T], Optional[R]],
                   put: Callable[[T, R], None],
                   compute: Callable[[List[T]], List[R]]) -> List[R]:
    """One result per item, in item order: ``get`` every item, then
    ``compute`` the misses and ``put`` each, in item order."""
    found: List[Optional[R]] = [get(item) for item in items]
    missing = [idx for idx, hit in enumerate(found) if hit is None]
    if missing:
        for idx, result in zip(missing,
                               compute([items[idx] for idx in missing])):
            found[idx] = result
            put(items[idx], result)
    return [result for result in found if result is not None]


def fetch_records(specs: Sequence[RunSpec], cache: Optional[ResultCache],
                  executor: ReplicationExecutor) -> List[Dict[str, Any]]:
    """One record per spec, in spec order: cache hits are reused and
    the misses simulated over ``executor`` and stored."""
    if cache is None:
        return executor.run_replications(specs)
    return _through_cache(specs, cache.get_run, cache.put_run,
                          executor.run_replications)


def fetch_estimates(tasks: Sequence[ModelTask],
                    cache: Optional[ResultCache],
                    executor: ReplicationExecutor) \
        -> List[LateFractionEstimate]:
    """One estimate per task, in task order: cache hits are reused and
    the misses solved over ``executor`` and stored."""
    if cache is None:
        return executor.solve_models(tasks)
    return _through_cache(tasks, cache.get_model, cache.put_model,
                          executor.solve_models)


def setting_run_spec(setting: Setting, duration_s: float, seed: int,
                     **options: Any) -> RunSpec:
    """One run of ``setting``: its paths on its topology (Fig. 3, or
    Fig. 6 when ``shared_bottleneck``) and bottleneck discipline, plus
    the :func:`~repro.experiments.scenarios.build_run` ``options``."""
    options.update(shared_bottleneck=setting.shared_bottleneck,
                   queue_discipline=setting.queue_discipline)
    return RunSpec(setting.mu, duration_s, tuple(setting.path_configs()),
                   seed, tuple(sorted(options.items())))


def measured_model_inputs(flow_stats: Sequence[Sequence[Dict[str, Any]]]) \
        -> Tuple[List[Dict[str, float]], List[FlowParams]]:
    """Per-path (p, R, T_O) of the senders' counters, averaged over
    runs (``flow_stats[run][path]``), and the model's flows for them:
    floored by :data:`MIN_MEASURED_P`/:data:`MIN_MEASURED_TO`, with the
    :data:`MEASURED_LOSS_MODEL` loss model."""
    runs = len(flow_stats)
    measured = [{
        "p": sum(s[idx]["loss_event_estimate"] for s in flow_stats) / runs,
        "rtt": sum(s[idx]["mean_rtt"] for s in flow_stats) / runs,
        "to": sum(s[idx]["timeout_ratio"] for s in flow_stats) / runs,
    } for idx in range(len(flow_stats[0]))]
    flow_params = [
        FlowParams(p=max(m["p"], MIN_MEASURED_P), rtt=m["rtt"],
                   to_ratio=max(m["to"], MIN_MEASURED_TO),
                   loss_model=MEASURED_LOSS_MODEL)
        for m in measured]
    return measured, flow_params


def run_setting(setting: Setting,
                taus: Sequence[float] = DEFAULT_TAUS,
                profile: Optional[ScaleProfile] = None,
                scheme: str = "dmp",
                seed0: int = 1000,
                send_buffer_pkts: int = 16,
                run_model: bool = True,
                max_workers: Optional[int] = None,
                cache: Union[ResultCache, bool, None] = None) \
        -> ReplicatedRun:
    """Run one validation setting: N simulations + the model.

    The model is fed the *measured* per-path (p, R, T_O) averaged over
    the replications — exactly the paper's methodology for Tables 2-3
    and Figs. 4-7.

    Replications (and the per-tau model solves) fan out over a process
    pool when ``max_workers > 1`` (default: the value wired by
    :func:`repro.experiments.parallel.configure` or ``$REPRO_WORKERS``,
    else serial); seeding stays ``seed0 + run`` regardless, so parallel
    results are bit-identical to serial ones.  ``cache`` is a
    :class:`repro.experiments.cache.ResultCache` (``None`` = the
    configured default, ``True`` = the configured cache even when off
    by default, ``False`` = bypass): already-simulated (setting, seed)
    records are reused instead of re-simulated, at any taus.
    """
    float_taus = check_taus(taus)
    if profile is None:
        profile = scale_profile()
    executor = ReplicationExecutor(max_workers=max_workers)
    tel = telemetry.current()
    with tel.span("setting", label=setting.name, scheme=scheme,
                  profile=profile.name, runs=profile.runs,
                  taus=len(float_taus)):
        specs = [setting_run_spec(setting, profile.duration_s, seed0 + run,
                                  scheme=scheme,
                                  send_buffer_pkts=send_buffer_pkts)
                 for run in range(profile.runs)]
        resolved = resolve_cache(cache)
        records = fetch_records(specs, resolved, executor)

        # One session per record: its arrivals answer every tau.
        late = {tau: [run_late_fractions(rec, setting.mu, tau)[0]
                      for rec in records]
                for tau in float_taus}
        per_tau = {tau: [lf for lf, _ in pairs]
                   for tau, pairs in late.items()}
        measured, flow_params = measured_model_inputs(
            [rec["flow_stats"] for rec in records])

        estimates: Dict[float, LateFractionEstimate] = {}
        if run_model:
            tasks = [ModelTask(flows=tuple(flow_params), mu=setting.mu,
                               tau=tau, horizon_s=profile.model_horizon_s,
                               seed=seed0)
                     for tau in float_taus]
            estimates = dict(zip(
                float_taus, fetch_estimates(tasks, resolved, executor)))

        points: List[TauPoint] = []
        for tau in float_taus:
            sim_mean, ci = _mean_ci95(per_tau[tau])
            ao_mean = sum(ao for _, ao in late[tau]) / len(late[tau])
            if run_model:
                estimate = estimates[tau]
                model_f, model_se = estimate.late_fraction, estimate.stderr
            else:
                model_f, model_se = float("nan"), float("nan")
            points.append(TauPoint(
                tau=tau, sim_mean=sim_mean, sim_ci95=ci,
                sim_arrival_order_mean=ao_mean,
                model_f=model_f, model_stderr=model_se))

        return ReplicatedRun(
            setting=setting, profile=profile, scheme=scheme,
            flow_params=flow_params, measured=measured, points=points,
            per_run_late=per_tau)
