"""The four workloads of the end-to-end benchmark.

Each workload regenerates one artefact through the public entry points
the CLI uses (``run_setting``, ``fig8_curves``, ``MultiSessionCampaign``
+ ``attach_health``) and nothing else: no ``service_batch``, no
``mc_kernel``, no direct ``StreamingSession``.

A workload is driven in three steps so that only the work a user waits
for is timed:

* ``prepare(seed, index, workdir)`` builds the inputs and objects
  (untimed here; the benchmark's ``setup_s`` times it in fresh
  processes);
* ``run(prepared)`` is the timed iteration;
* ``evaluate(prepared, raw, seed, index)`` checks the outputs and
  summarises them into an :class:`Outcome` (untimed).

Sizes are reduced from the paper's profiles so that one run of the
benchmark measures several iterations of every workload within its
time budget; the sizes are fields, so tests can shrink them further.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.core.campaign import MultiSessionCampaign
from repro.experiments.cache import ResultCache
from repro.experiments.configs import ALL_SETTINGS
from repro.experiments.runner import ScaleProfile, TauPoint, run_setting
from repro.experiments.sweep import fig8_curves
from repro.sim.pool import PacketPool
from repro.sim.topology import BottleneckSpec

#: ``--seed`` n moves every seed a workload uses by n * SEED_STRIDE, and
#: iteration i of a run by i * ITER_STRIDE; run_setting's replications
#: use ``seed0 + run``, so the iteration stride leaves room for them.
SEED_STRIDE = 100_000
ITER_STRIDE = 10


def seed_offset(seed: int, index: int) -> int:
    """Offset added to a workload's base seeds for one iteration."""
    return seed * SEED_STRIDE + index * ITER_STRIDE


def _round(value: float) -> float:
    """Twelve significant digits: stable across platforms' last bits."""
    return float(f"{value:.12g}")


@dataclass
class Outcome:
    """What one iteration produced, summarised for metrics and checks."""

    #: Units of work for ``work_per_cpu_s`` (video packets or solves).
    work: float
    #: Video packets the iteration streamed (0 for pure model work).
    video_pkts: int
    #: Rounded, JSON-able results; ``digest`` hashes them.
    summary: Any
    #: Failed output checks, one message each.
    failures: List[str]
    #: (late fraction, stderr) of every model solve.
    estimates: List[Tuple[float, float]] = field(default_factory=list)
    pool: Optional[PacketPool] = None

    @property
    def digest(self) -> str:
        text = json.dumps(self.summary, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _non_increasing(label: str, values: Sequence[float],
                    slack: Sequence[float]) -> List[str]:
    """Failures where ``values[i+1]`` exceeds ``values[i]`` by more
    than ``slack[i]``."""
    return [f"{label}: {values[i + 1]!r} > {values[i]!r} at step {i}"
            for i in range(len(values) - 1)
            if values[i + 1] > values[i] + slack[i]]


def _three_sigma(a: float, b: float) -> float:
    return 3.0 * math.hypot(a, b)


def _row_failures(label: str, points: Sequence[TauPoint]) -> List[str]:
    """Late fractions in [0, 1] and non-increasing in tau (the model
    within 3 stderr); ``points`` must be sorted by tau."""
    failures = [f"{label}: late fraction outside [0, 1] at tau={p.tau}"
                for p in points
                if not (0.0 <= p.sim_mean <= 1.0
                        and 0.0 <= p.model_f <= 1.0)]
    failures += _non_increasing(
        f"{label} sim", [p.sim_mean for p in points],
        [0.0] * len(points))
    failures += _non_increasing(
        f"{label} model", [p.model_f for p in points],
        [_three_sigma(a.model_stderr, b.model_stderr)
         for a, b in zip(points, points[1:])])
    return failures


def _points_summary(points: Sequence[TauPoint]) -> List[List[float]]:
    return [[p.tau, _round(p.sim_mean), _round(p.sim_ci95),
             _round(p.sim_arrival_order_mean), _round(p.model_f),
             _round(p.model_stderr)] for p in points]


def _setting_inputs(workload: Any, seed0: int, workdir: str) \
        -> Dict[str, Any]:
    """``run_setting`` inputs of a workload with ``setting``, ``runs``,
    ``duration_s`` and ``model_horizon_s`` fields, on a fresh cache."""
    return {
        "setting": ALL_SETTINGS[workload.setting],
        "profile": ScaleProfile("bench", runs=workload.runs,
                                duration_s=workload.duration_s,
                                model_horizon_s=workload.model_horizon_s),
        "seed0": seed0,
        "cache": ResultCache(os.path.join(workdir, "cache")),
    }


# ---------------------------------------------------------------------
@dataclass(frozen=True)
class ValidationRow:
    """One Table 2 / Fig 4 validation row on the Fig 3 topology:
    replicated packet simulations, measured (p, R, T_O) fed to the
    CTMC, late fraction vs startup delay."""

    name: ClassVar[str] = "validation_row"
    setting: str = "2-2"
    runs: int = 2
    duration_s: float = 10.0
    model_horizon_s: float = 20000.0

    def prepare(self, seed: int, index: int, workdir: str) \
            -> Dict[str, Any]:
        return _setting_inputs(self, 1000 + seed_offset(seed, index),
                               workdir)

    def run(self, prepared: Dict[str, Any]) -> Any:
        return run_setting(prepared["setting"],
                           profile=prepared["profile"],
                           seed0=prepared["seed0"],
                           cache=prepared["cache"], max_workers=1)

    def evaluate(self, prepared: Dict[str, Any], raw: Any, seed: int,
                 index: int) -> Outcome:
        failures = []
        for i, m in enumerate(raw.measured):
            if not 0.005 <= m["p"] <= 0.1:
                failures.append(f"path {i}: measured p={m['p']!r}")
            if not 0.05 <= m["rtt"] <= 0.5:
                failures.append(f"path {i}: measured R={m['rtt']!r}")
            if not m["to"] >= 1.0:
                failures.append(f"path {i}: measured T_O={m['to']!r}")
        failures += _row_failures("row", raw.points)
        video = self.runs * int(prepared["setting"].mu * self.duration_s)
        return Outcome(
            work=video, video_pkts=video,
            summary={"measured": [[_round(m["p"]), _round(m["rtt"]),
                                   _round(m["to"])]
                                  for m in raw.measured],
                     "points": _points_summary(raw.points)},
            failures=failures,
            estimates=[(p.model_f, p.model_stderr) for p in raw.points])


# ---------------------------------------------------------------------
class _SolveRecorder(ResultCache):
    """An in-memory stand-in for the result cache that never hits and
    keeps every estimate ``fig8_curves`` stores, so the column can be
    checked against its standard errors without touching the disk."""

    def __init__(self) -> None:
        super().__init__(directory=os.devnull)
        self.estimates: List[Any] = []

    def get_model(self, task: Any) -> None:
        return None

    def put_model(self, task: Any, estimate: Any) -> None:
        self.estimates.append(estimate)


#: ``fig8_curves`` estimates of the default Fig8Column on --seed 0,
#: iteration 0, as computed by the code this benchmark was written
#: against: ratio -> late fraction per tau (2, 4, ..., 30).
FIG8_PINNED: Dict[float, List[float]] = {
    1.2: [0.484662917471, 0.291880311016, 0.168895702177,
          0.0844082726432, 0.0465547620062, 0.0230459728911,
          0.00809939686412, 0.000466042307462, 3.43190474703e-26,
          0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    1.6: [0.0513628590104, 0.00133752665571, 9.32164685826e-20,
          0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
}


@dataclass(frozen=True)
class Fig8Column:
    """Fig 8's model curves for two sigma_a/mu ratios: a grid of
    (ratio, tau) Monte-Carlo solves of the DMP CTMC, no simulation."""

    name: ClassVar[str] = "fig8_column"
    ratios: Tuple[float, ...] = (1.2, 1.6)
    taus: Tuple[float, ...] = tuple(float(t) for t in range(2, 31, 2))
    horizon_s: float = 3000.0

    def prepare(self, seed: int, index: int, workdir: str) \
            -> Dict[str, Any]:
        return {"seed": seed_offset(seed, index),
                "cache": _SolveRecorder()}

    def run(self, prepared: Dict[str, Any]) -> Any:
        return fig8_curves(ratios=self.ratios, taus=self.taus,
                           horizon_s=self.horizon_s,
                           seed=prepared["seed"], max_workers=1,
                           cache=prepared["cache"])

    def evaluate(self, prepared: Dict[str, Any], raw: Any, seed: int,
                 index: int) -> Outcome:
        recorded = prepared["cache"].estimates
        grid = [(ratio, tau) for ratio in self.ratios
                for tau in self.taus]
        if len(recorded) != len(grid):
            return Outcome(work=len(grid), video_pkts=0, summary=None,
                           failures=[f"{len(recorded)} solves recorded "
                                     f"for {len(grid)} grid points"])
        # fig8_curves stores its solves in grid order.
        est = dict(zip(grid, recorded))
        failures = []
        for ratio in self.ratios:
            values = [f for _, f in raw[ratio]]
            if values != [est[ratio, tau].late_fraction
                          for tau in self.taus]:
                failures.append(f"ratio {ratio}: curve != stored solves")
            errs = [est[ratio, tau].stderr for tau in self.taus]
            failures += _non_increasing(
                f"ratio {ratio} in tau", values,
                [_three_sigma(a, b) for a, b in zip(errs, errs[1:])])
        for tau in self.taus:
            cells = [est[ratio, tau] for ratio in self.ratios]
            failures += _non_increasing(
                f"tau {tau} in ratio",
                [e.late_fraction for e in cells],
                [_three_sigma(a.stderr, b.stderr)
                 for a, b in zip(cells, cells[1:])])
        if (seed, index) == (0, 0) and self == Fig8Column():
            for ratio, pinned in FIG8_PINNED.items():
                for tau, want in zip(self.taus, pinned):
                    got = est[ratio, tau]
                    if abs(got.late_fraction - want) \
                            > max(3.0 * got.stderr, 1e-4):
                        failures.append(
                            f"ratio {ratio} tau {tau}: "
                            f"{got.late_fraction!r} != pinned {want!r}")
        return Outcome(
            work=len(grid), video_pkts=0,
            summary={str(r): [[t, _round(f)] for t, f in raw[r]]
                     for r in self.ratios},
            failures=failures,
            estimates=[(e.late_fraction, e.stderr) for e in recorded])


# ---------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignN200:
    """The ``cli campaign --health-out`` path: N concurrent DMP
    sessions on one shared bottleneck with the QoE health layer."""

    name: ClassVar[str] = "campaign_n200"
    n_sessions: int = 200
    mu: float = 25.0
    duration_s: float = 8.0
    bandwidth_bps: float = 50e6
    delay_s: float = 0.010
    buffer_pkts: int = 250
    stagger_s: float = 0.02
    warmup_s: float = 5.0
    drain_s: float = 5.0
    health_tau: float = 6.0

    def prepare(self, seed: int, index: int, workdir: str) \
            -> Dict[str, Any]:
        campaign = MultiSessionCampaign(
            mu=self.mu, duration_s=self.duration_s,
            n_sessions=self.n_sessions,
            bottleneck=BottleneckSpec(self.bandwidth_bps, self.delay_s,
                                      self.buffer_pkts),
            seed=1 + seed_offset(seed, index), stagger_s=self.stagger_s,
            warmup_s=self.warmup_s)
        return {"campaign": campaign, "seed": 1 + seed_offset(seed, index),
                "health": campaign.attach_health(tau=self.health_tau)}

    def run(self, prepared: Dict[str, Any]) -> Any:
        # The same span run_campaign's replications open, so the
        # traced pass attributes the run to the simulate stage.
        with telemetry.current().span("replication", label=self.name,
                                      seed=prepared["seed"]):
            result = prepared["campaign"].run(drain_s=self.drain_s)
        return result, prepared["health"].rollup()

    def evaluate(self, prepared: Dict[str, Any], raw: Any, seed: int,
                 index: int) -> Outcome:
        result, rollup = raw
        pool = prepared["campaign"].sim.pool
        failures = [f"session {s.index}: delivered {s.received} > "
                    f"{s.total_packets}"
                    for s in result.sessions
                    if s.received > s.total_packets]
        if pool.acquired - pool.released != pool.allocated - pool.free:
            failures.append(f"pool leak: {pool!r} acquired="
                            f"{pool.acquired} released={pool.released}")
        if rollup["counters"]["sessions"] != self.n_sessions \
                or len(rollup["sessions"]) != self.n_sessions:
            failures.append(f"rollup holds "
                            f"{rollup['counters']['sessions']} sessions")
        if not 0.0 < result.bottleneck_drop_fraction < 0.3:
            failures.append(f"drop fraction "
                            f"{result.bottleneck_drop_fraction!r}")
        video = sum(s.total_packets for s in result.sessions)
        return Outcome(
            work=video, video_pkts=video,
            summary={"received": [s.received for s in result.sessions],
                     "drop_fraction":
                         _round(result.bottleneck_drop_fraction),
                     "events": result.events_processed,
                     "counters": rollup["counters"]},
            failures=failures, pool=pool)


# ---------------------------------------------------------------------
@dataclass(frozen=True)
class TauRequery:
    """One cache directory, three ``run_setting`` calls: cold at the
    default taus, again at new taus, warm at the default taus."""

    name: ClassVar[str] = "tau_requery"
    setting: str = "2-2"
    runs: int = 2
    duration_s: float = 5.0
    model_horizon_s: float = 2000.0
    passes: Tuple[Tuple[float, ...], ...] = (
        (4.0, 6.0, 8.0, 10.0), (3.0, 5.0, 7.0), (4.0, 6.0, 8.0, 10.0))

    def prepare(self, seed: int, index: int, workdir: str) \
            -> Dict[str, Any]:
        return _setting_inputs(self, 2000 + seed_offset(seed, index),
                               workdir)

    def run(self, prepared: Dict[str, Any]) -> Any:
        cache = prepared["cache"]
        passes = []
        for taus in self.passes:
            row = run_setting(prepared["setting"], taus=taus,
                              profile=prepared["profile"],
                              seed0=prepared["seed0"], cache=cache,
                              max_workers=1)
            passes.append((row, cache.hits, cache.misses))
        return passes

    def evaluate(self, prepared: Dict[str, Any], raw: Any, seed: int,
                 index: int) -> Outcome:
        (cold, _, _), (requery, _, misses), (warm, _, warm_misses) = raw
        failures = []
        if warm.points != cold.points:
            failures.append("warm pass differs from the cold pass")
        if warm_misses != misses:
            failures.append(f"warm pass missed the cache "
                            f"{warm_misses - misses} times")
        merged = sorted(cold.points + requery.points,
                        key=lambda p: p.tau)
        failures += _row_failures("merged", merged)
        per_pass = self.runs * int(prepared["setting"].mu
                                   * self.duration_s)
        return Outcome(
            work=per_pass * len(self.passes),
            video_pkts=per_pass * len(self.passes),
            summary=[_points_summary(row.points) for row, _, _ in raw],
            failures=failures,
            estimates=[(p.model_f, p.model_stderr)
                       for row, _, _ in raw for p in row.points])


WORKLOADS = {wl.name: wl for wl in
             (ValidationRow(), Fig8Column(), CampaignN200(), TauRequery())}
