"""Emulated wide-area experiments (the paper's Section 6 / Fig. 7).

The paper streams from a UConn server to PlanetLab clients: a
homogeneous pair of ADSL-connected nodes in San Francisco and a
heterogeneous pair (San Francisco + Hefei, China), 10 experiments of
3,000 s each at randomly chosen times, packets of 1448 bytes, video
rates 25/50 (homogeneous) and 100 (heterogeneous) packets per second.

No Internet access is available here, so each experiment is emulated
in the packet simulator with wide-area-flavoured paths:

* *SF-ADSL* — ADSL-class bottleneck (1.5-2.5 Mbps), one-way latency
  drawn around 35 ms (continental path), moderate background;
* *Hefei* — trans-Pacific latency (110-140 ms one way), a tighter
  bottleneck and heavier cross traffic.

"Randomly chosen times" becomes randomly drawn background intensity;
the per-flow parameters are then *measured on the run* (the senders'
own loss, RTT and timeout counters, as in ``run_setting``) and fed to
the model, preserving exactly what Fig. 7 tests: model predictions
versus measurements on paths whose parameters are only known through
measurement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.experiments.cache import resolve_cache, run_late_fractions
from repro.experiments.parallel import (
    ModelTask,
    ReplicationExecutor,
    RunSpec,
)
from repro.experiments.runner import (
    ScaleProfile,
    check_taus,
    fetch_estimates,
    fetch_records,
    measured_model_inputs,
    scale_profile,
)
from repro.sim.topology import BottleneckSpec, PathConfig

INTERNET_SEGMENT_BYTES = 1448
DEFAULT_TAUS = (4.0, 6.0, 8.0, 10.0)

# Wide-area paths have a large bandwidth-delay product; the default
# 16-packet send buffer would cap the in-flight window below fair
# share (and hide the true loss rate from the measurement), so size it
# to cover the largest path BDP.
INTERNET_OPTIONS = (("scheme", "dmp"),
                    ("segment_bytes", INTERNET_SEGMENT_BYTES),
                    ("send_buffer_pkts", 48))


@dataclass(frozen=True)
class InternetExperimentResult:
    """One emulated wide-area experiment."""

    index: int
    kind: str                  # "homogeneous" or "heterogeneous"
    mu: float
    measured: List[Dict[str, float]]
    sim_late: Dict[float, float]
    sim_arrival_order_late: Dict[float, float]
    model_late: Dict[float, float]


def _sf_adsl_path(rng: random.Random) -> PathConfig:
    bandwidth = rng.uniform(1.5e6, 2.5e6)
    delay = rng.uniform(0.025, 0.045)
    return PathConfig(
        bottleneck=BottleneckSpec(bandwidth_bps=bandwidth,
                                  delay_s=delay, buffer_pkts=50),
        n_ftp=rng.randint(1, 3), n_http=rng.randint(5, 15))


def _hefei_path(rng: random.Random) -> PathConfig:
    bandwidth = rng.uniform(2.5e6, 3.5e6)
    delay = rng.uniform(0.110, 0.140)
    return PathConfig(
        bottleneck=BottleneckSpec(bandwidth_bps=bandwidth,
                                  delay_s=delay, buffer_pkts=60),
        n_ftp=rng.randint(1, 2), n_http=rng.randint(8, 15))


def run_internet_experiments(
        n_experiments: int = 10,
        taus: Sequence[float] = DEFAULT_TAUS,
        profile: Optional[ScaleProfile] = None,
        seed: int = 2006,
        max_workers: Optional[int] = None) \
        -> List[InternetExperimentResult]:
    """Reproduce the Fig.-7 campaign: 10 experiments, model vs run.

    Experiments alternate between the homogeneous (two SF-ADSL paths,
    mu in {25, 50}) and heterogeneous (SF + Hefei, mu = 100) setups, as
    in the paper.  Durations scale with the profile (the paper used
    3,000 s per experiment; ``paper`` profile restores that).

    All path parameters are drawn up front from one seeded stream.
    The runs (seed ``seed + 17*index``) are one batch of cached
    replications and the model solves (seed ``seed + 31*index``) one
    batch of cached solves, both fanned out over ``max_workers`` (or
    the configured default) without changing any result.
    """
    float_taus = check_taus(taus)
    if profile is None:
        profile = scale_profile()
    duration = {"quick": 300.0, "full": 900.0,
                "paper": 3000.0}.get(profile.name, profile.duration_s)

    kinds: List[str] = []
    specs: List[RunSpec] = []
    rng = random.Random(seed)
    for index in range(n_experiments):
        paths: Tuple[PathConfig, ...]
        if index % 2 == 1:
            paths = (_sf_adsl_path(rng), _hefei_path(rng))
            mu = 100.0
            kinds.append("heterogeneous")
        else:
            paths = (_sf_adsl_path(rng), _sf_adsl_path(rng))
            mu = rng.choice([25.0, 50.0])
            kinds.append("homogeneous")
        specs.append(RunSpec(mu, duration, paths, seed + 17 * index,
                             INTERNET_OPTIONS))

    cache = resolve_cache(None)
    executor = ReplicationExecutor(max_workers=max_workers)
    tel = telemetry.current()
    with tel.span("internet.campaign", experiments=n_experiments,
                  seed=seed):
        records = fetch_records(specs, cache, executor)
        inputs = [measured_model_inputs([record["flow_stats"]])
                  for record in records]
        estimates = iter(fetch_estimates(
            [ModelTask(flows=tuple(flow_params), mu=spec.mu, tau=tau,
                       horizon_s=profile.model_horizon_s,
                       seed=seed + 31 * index)
             for index, (spec, (_, flow_params))
             in enumerate(zip(specs, inputs)) for tau in float_taus],
            cache, executor))

    results: List[InternetExperimentResult] = []
    for index, (kind, spec, record, (measured, _)) in enumerate(
            zip(kinds, specs, records, inputs)):
        late = {tau: run_late_fractions(record, spec.mu, tau)[0]
                for tau in float_taus}
        results.append(InternetExperimentResult(
            index=index, kind=kind, mu=spec.mu, measured=measured,
            sim_late={tau: lf for tau, (lf, _) in late.items()},
            sim_arrival_order_late={tau: ao
                                    for tau, (_, ao) in late.items()},
            model_late={tau: next(estimates).late_fraction
                        for tau in float_taus}))
    return results


def scatter_points(results: Sequence[InternetExperimentResult]) \
        -> List[Tuple[float, float, float]]:
    """(tau, measurement, model) triples for the Fig.-7b scatter plot."""
    points: List[Tuple[float, float, float]] = []
    for result in results:
        for tau in sorted(result.sim_late):
            points.append((tau, result.sim_late[tau],
                           result.model_late[tau]))
    return points


def within_tenfold_fraction(
        results: Sequence[InternetExperimentResult],
        epsilon: float = 1e-4) -> float:
    """Fraction of scatter points inside the paper's 10x band.

    Points where both values are below ``epsilon`` count as matches
    (the paper treats jointly-zero points as agreement).
    """
    points = scatter_points(results)
    if not points:
        return 1.0
    good = 0
    for _, sim, model in points:
        if sim < epsilon and model < epsilon:
            good += 1
        elif sim > 0 and model > 0 and 0.1 < model / sim < 10.0:
            good += 1
    return good / len(points)
