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
from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.experiments.cache import resolve_cache, tau_key
from repro.experiments.configs import Setting
from repro.experiments.parallel import (
    ModelTask,
    ReplicationExecutor,
    RunSpec,
)
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


@dataclass(frozen=True)
class ScaleProfile:
    name: str
    runs: int
    duration_s: float
    model_horizon_s: float


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
    measured: List[dict]
    points: List[TauPoint]
    per_run_late: Dict[float, List[float]] = field(default_factory=dict)
    per_run_counters: List[dict] = field(default_factory=list)

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


def _mean_ci95(values: Sequence[float]) -> tuple:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, float("inf")
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, _t_ci95(n - 1) * math.sqrt(var / n)


def run_setting(setting: Setting,
                taus: Sequence[float] = DEFAULT_TAUS,
                profile: Optional[ScaleProfile] = None,
                scheme: str = "dmp",
                seed0: int = 1000,
                send_buffer_pkts: int = 16,
                run_model: bool = True,
                max_workers: Optional[int] = None,
                cache=None,
                counters: bool = False,
                executor: Optional[ReplicationExecutor] = None) \
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
    configured default, ``False`` = bypass): already-simulated
    (setting, seed) records are reused instead of re-simulated.
    """
    if setting.n_sessions > 1:
        raise ValueError(
            f"setting {setting.name!r} has n_sessions="
            f"{setting.n_sessions}; use "
            "repro.experiments.campaign.run_campaign for "
            "multi-session settings (the per-path model validation "
            "below has no population analogue)")
    if setting.backend != "packet":
        raise ValueError(
            f"setting {setting.name!r} selects backend="
            f"{setting.backend!r}; run_setting is packet-sim only — "
            "the mean-field backend is a population model, use "
            "repro.experiments.campaign.run_campaign")
    if profile is None:
        profile = scale_profile()
    if executor is None:
        executor = ReplicationExecutor(max_workers=max_workers)
    tel = telemetry.current()
    with tel.span("setting", label=setting.name, scheme=scheme,
                  profile=profile.name, runs=profile.runs,
                  taus=len(taus)):
        cache = resolve_cache(cache)

        taus = [float(tau) for tau in taus]
        specs = [RunSpec(setting=setting, duration_s=profile.duration_s,
                         scheme=scheme, seed=seed0 + run,
                         send_buffer_pkts=send_buffer_pkts,
                         taus=tuple(taus), counters=counters)
                 for run in range(profile.runs)]
        records: List[Optional[dict]] = [
            cache.get_run(spec) if cache else None for spec in specs]
        missing = [idx for idx, rec in enumerate(records) if rec is None]
        fresh = executor.run_replications([specs[idx] for idx in missing])
        for idx, record in zip(missing, fresh):
            records[idx] = record
            if cache:
                cache.put_run(specs[idx], record)

        per_tau: Dict[float, List[float]] = {
            tau: [rec["taus"][tau_key(tau)][0] for rec in records]
            for tau in taus}
        per_tau_ao: Dict[float, List[float]] = {
            tau: [rec["taus"][tau_key(tau)][1] for rec in records]
            for tau in taus}
        stats_acc: List[List[dict]] = [rec["flow_stats"] for rec in records]

        # Average measured flow parameters over the replications.
        k = len(stats_acc[0])
        measured: List[dict] = []
        for idx in range(k):
            p_mean = sum(s[idx]["loss_event_estimate"]
                         for s in stats_acc) / profile.runs
            rtt_mean = sum(s[idx]["mean_rtt"]
                           for s in stats_acc) / profile.runs
            to_mean = sum(s[idx]["timeout_ratio"]
                          for s in stats_acc) / profile.runs
            measured.append({"p": p_mean, "rtt": rtt_mean, "to": to_mean})

        flow_params = [
            FlowParams(p=max(m["p"], MIN_MEASURED_P),
                       rtt=m["rtt"],
                       to_ratio=max(m["to"], MIN_MEASURED_TO),
                       loss_model=MEASURED_LOSS_MODEL)
            for m in measured]

        estimates = {}
        if run_model:
            tasks = [ModelTask(flows=tuple(flow_params), mu=setting.mu,
                               tau=tau, horizon_s=profile.model_horizon_s,
                               seed=seed0)
                     for tau in taus]
            cached = [cache.get_model(task) if cache else None
                      for task in tasks]
            unsolved = [idx for idx, est in enumerate(cached)
                        if est is None]
            solved = executor.solve_models(
                [tasks[idx] for idx in unsolved])
            for idx, estimate in zip(unsolved, solved):
                cached[idx] = estimate
                if cache:
                    cache.put_model(tasks[idx], estimate)
            estimates = dict(zip(taus, cached))

        points: List[TauPoint] = []
        for tau in taus:
            sim_mean, ci = _mean_ci95(per_tau[tau])
            ao_mean = sum(per_tau_ao[tau]) / len(per_tau_ao[tau])
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
            per_run_late=per_tau,
            per_run_counters=[rec.get("counters", {}) for rec in records]
            if counters else [])
