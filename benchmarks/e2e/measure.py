"""Timed and traced passes over one workload.

An untimed ``prepare`` builds each iteration's inputs in a fresh
directory under ``benchmarks/e2e/_work``; only ``run`` is timed; the
outputs are checked after the clock stops.  Iteration ``i`` of a run
uses its own seeds (see :func:`workloads.seed_offset`), so a run's
median spans several inputs of the workload.

Every time metric is scaled to the reference host by a
:class:`hostspeed.HostSpeed` sampled during the timed region; the raw
times are kept in the detail.
"""

from __future__ import annotations

import cProfile
import contextlib
import gc
import resource
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import census
from hostspeed import HostSpeed
from workloads import Outcome

WORK_ROOT = Path(__file__).resolve().parent / "_work"

#: A run keeps starting iterations until ``--seconds`` have passed, and
#: always measures at least this many, so its median has a middle.
MIN_ITERATIONS = 3


E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "work_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "sim.engine.events": "count",
    "sim.engine.events_per_video_pkt": "events/pkt",
    "sim.engine.cpu_us_per_event": "us",
    "sim.engine.unfired_frac": "ratio",
    "sim.link.events_frac": "ratio",
    "sim.link.events_per_offer": "events/offer",
    "sim.link.cpu_frac": "time_frac",
    "sim.queueing.drop_frac": "ratio",
    "sim.pool.reuse_frac": "ratio",
    "sim.cpu_frac": "time_frac",
    "tcp.timer_events_frac": "ratio",
    "tcp.timer_unfired_frac": "ratio",
    "tcp.cpu_frac": "time_frac",
    "traffic.events_frac": "ratio",
    "traffic.cpu_frac": "time_frac",
    "core.events_per_video_pkt": "events/pkt",
    "core.cpu_frac": "time_frac",
    "obs.cpu_frac": "time_frac",
    "model.solves": "count",
    "model.cpu_s_per_solve": "s",
    "model.mc_blocks": "count",
    "model.compile_frac": "time_frac",
    "model.rel_stderr_p50": "ratio",
    "model.cpu_frac": "time_frac",
    "experiments.simulate_frac": "time_frac",
    "experiments.model_frac": "time_frac",
    "experiments.cache_frac": "time_frac",
    "experiments.other_frac": "time_frac",
    "experiments.cache.hit_frac": "ratio",
    "experiments.cache.resimulated_runs": "count",
    "experiments.cache.bytes": "bytes",
    "experiments.cpu_frac": "time_frac",
    "trace.overhead_frac": "time_frac",
}


@dataclass
class Iteration:
    wall: float
    cpu: float
    outcome: Outcome
    cache_bytes: int


@dataclass
class Pass:
    """What one run of the benchmark measured."""

    metrics: Dict[str, Dict[str, Any]]
    attempted: int
    errors: List[str]
    digests: List[str]
    detail: Dict[str, Any]

    @property
    def failed(self) -> int:
        """Operations that raised or failed a check (one error each)."""
        return len(self.errors)


def run_once(workload: Any, seed: int, index: int,
             trace: Optional[census.LayerTrace] = None,
             profiler: Optional[cProfile.Profile] = None,
             speed: Optional[HostSpeed] = None) -> Iteration:
    """Prepare, run (timed) and evaluate one iteration.  With ``speed``
    the host is sampled while ``run`` is timed, and the probes' own
    time is left out of ``wall`` and ``cpu``."""
    gc.collect()  # the last iteration's garbage must not count here
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
        prepared = workload.prepare(seed, index, workdir)
        if trace is not None:
            trace.watch_cache(prepared.get("cache"))
        with speed or contextlib.nullcontext():
            c0, w0 = time.process_time(), time.perf_counter()
            if profiler is not None:
                raw = profiler.runcall(workload.run, prepared)
            else:
                raw = workload.run(prepared)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if speed is not None:
            wall -= speed.probe_wall
            cpu -= speed.probe_cpu
        outcome = workload.evaluate(prepared, raw, seed, index)
        return Iteration(wall, cpu, outcome, census.tree_bytes(workdir))


def summary(samples: List[float], unit: str) -> Dict[str, Any]:
    """Median with quartiles, extremes and the samples themselves."""
    q1, _, q3 = statistics.quantiles(samples, n=4) \
        if len(samples) > 1 else (samples[0],) * 3
    return {"value": statistics.median(samples), "unit": unit,
            "n": len(samples), "min": min(samples), "max": max(samples),
            "q1": q1, "q3": q3, "samples": samples}


def _attempt(errors: List[str], fn: Callable[[], Iteration]) \
        -> Optional[Iteration]:
    """Run one iteration; a raise or failed checks add one error."""
    try:
        it = fn()
    except Exception:  # one failed operation must not end the run
        errors.append(traceback.format_exc())
        return None
    if it.outcome.failures:
        errors.append("\n".join(it.outcome.failures))
        return None
    return it


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_pass(workload: Any, seed: int, seconds: float,
             setup: Callable[[], List[float]],
             min_iterations: int = MIN_ITERATIONS) -> Pass:
    """Untraced iterations for ``seconds``; end-to-end metrics.

    ``setup`` returns set-up times, already scaled to the reference
    host; iteration times are scaled here.
    """
    setup_s = setup()
    errors: List[str] = []
    done: List[Tuple[Iteration, float]] = []
    attempted = 0
    start = time.perf_counter()
    while attempted < min_iterations \
            or time.perf_counter() - start < seconds:
        index = attempted
        attempted += 1
        speed = HostSpeed()
        it = _attempt(errors, lambda: run_once(workload, seed, index,
                                               speed=speed))
        if it is not None:
            done.append((it, speed.factor))
        if attempted == 1:
            # Peak memory of one regeneration: later iterations only
            # add allocator fragmentation, which varies with their count.
            rss_mb = peak_rss_mb()
    if not done:
        raise RuntimeError(f"{workload.name}: every iteration failed:\n"
                           + "\n".join(errors))
    samples = {
        "setup_s": setup_s,
        "wall_s": [it.wall * factor for it, factor in done],
        "cpu_s": [it.cpu * factor for it, factor in done],
        "work_per_cpu_s": [it.outcome.work / (it.cpu * factor)
                           for it, factor in done],
        "peak_rss_mb": [rss_mb],
    }
    return Pass(
        metrics={name: summary(samples[name], unit)
                 for name, unit in E2E_UNITS.items()},
        attempted=attempted, errors=errors,
        digests=[it.outcome.digest for it, _ in done],
        detail={"host_speed": [factor for _, factor in done],
                "raw_wall_s": [it.wall for it, _ in done],
                "raw_cpu_s": [it.cpu for it, _ in done]})


def layer_pass(workload: Any, seed: int, seconds: float) -> Pass:
    """One cProfile pass, then (untraced, traced) pairs of iteration 0
    until ``seconds`` have passed; per-layer metrics.

    Every pass repeats the same inputs, so every digest (the profiled
    one included) must equal the first untraced one and every census
    must repeat the first exactly: a mismatch means tracing perturbed
    the run, and counts as failed.
    """
    errors: List[str] = []
    start = time.perf_counter()
    profiler = cProfile.Profile()
    attempted = 1
    profiled = _attempt(errors, lambda: run_once(workload, seed, 0,
                                                 profiler=profiler))
    shares = census.profile_shares(profiler)
    pairs: List[Tuple[Iteration, Iteration, census.LayerTrace]] = []
    while time.perf_counter() - start < seconds \
            or (not pairs and attempted < 8):
        attempted += 2
        base = _attempt(errors, lambda: run_once(workload, seed, 0))
        trace = census.LayerTrace()
        with trace:
            traced = _attempt(errors, lambda: run_once(workload, seed, 0,
                                                       trace=trace))
        if base is None or traced is None:
            continue
        first = pairs[0] if pairs else (base, traced, trace)
        digests = {base.outcome.digest, traced.outcome.digest}
        if profiled is not None:
            digests.add(profiled.outcome.digest)
        if digests != {first[0].outcome.digest} \
                or trace.counts() != first[2].counts():
            errors.append("tracing changed the output digest or the "
                          "census differs between traced runs")
        pairs.append((base, traced, trace))
    if not pairs:
        raise RuntimeError(f"{workload.name}: every traced pass "
                           "failed:\n" + "\n".join(errors))
    per_pair = [census.layer_metrics(trace, traced.outcome,
                                     traced_wall=traced.wall,
                                     traced_cpu=traced.cpu,
                                     untraced_cpu=base.cpu,
                                     cache_bytes=traced.cache_bytes,
                                     shares=shares)
                for base, traced, trace in pairs]
    first_trace = pairs[0][2]
    assert first_trace.tel is not None
    return Pass(
        metrics={name: summary([m[name] for m in per_pair], unit)
                 for name, unit in LAYER_UNITS.items()},
        attempted=attempted, errors=errors,
        digests=[it.outcome.digest for pair in pairs for it in pair[:2]],
        detail={"census": first_trace.counts(),
                "layers": first_trace.by_layer(),
                "profile_self_time": shares,
                "telemetry": first_trace.tel.portable()})
