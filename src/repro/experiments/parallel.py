"""Parallel fan-out of replicated simulations and model solves.

The paper's methodology is 30 replications x 10,000 simulated seconds
per setting; each replication is an independent pure function of its
seed, so the natural unit of parallelism is one packet run (one
:class:`~repro.core.campaign.MultiSessionCampaign`) and, on the model
side, one ``late_fraction_mc`` solve per startup delay.
:class:`ReplicationExecutor` fans those units out over a
``concurrent.futures.ProcessPoolExecutor``.

Determinism is the contract: replication ``run`` always gets seed
``seed0 + run`` and the per-run work is executed by the *same*
top-level functions (:func:`simulate_run`, :func:`solve_model`)
whether it runs in a worker process or inline, so parallel results are
bit-identical to serial ones and cache keys are stable.

Telemetry: when a :mod:`repro.telemetry` session is active, every
``map`` opens an ``executor.map`` span, work functions open their own
``replication``/``solve`` spans, and pooled items run under a fresh
session in the worker (:class:`_CapturedCall`) whose spans are merged
back in submit order — so the merged tree of a parallel campaign has
the same :meth:`Span.signature` as the serial one.  Queue waits, item
durations, worker utilization and fallback/retry counters ride along.
With no session active all of this reduces to attribute loads on
:data:`telemetry.NULL_TELEMETRY` (the ``Probe.active`` contract).

Degradation rules:

* ``max_workers <= 1`` (the default) never creates a pool;
* a pool that cannot be created at all (sandboxed environments without
  fork/spawn, missing ``/dev/shm``...) falls back to serial execution
  with a warning;
* a crashed worker (killed by the OOM killer, a BrokenProcessPool...)
  gets its item retried once serially; if the retry also fails, the
  underlying exception propagates — that is a genuine bug, not an
  infrastructure hiccup.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple, TypeVar)

from repro import telemetry
from repro.experiments.cache import session_record
from repro.experiments.configs import Setting
from repro.experiments.scenarios import build_run
from repro.model.dmp_model import DmpModel, LateFractionEstimate
from repro.model.tcp_chain import FlowParams

ENV_WORKERS = "REPRO_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to (re)build one replication, picklable."""

    setting: Setting
    duration_s: float
    scheme: str
    seed: int
    send_buffer_pkts: int


@dataclass(frozen=True)
class ModelTask:
    """One ``late_fraction_mc`` solve, picklable."""

    flows: Tuple[FlowParams, ...]
    mu: float
    tau: float
    horizon_s: float
    seed: int


def simulate_run(spec: RunSpec) -> Dict[str, Any]:
    """Run one replication; returns a JSON-able record.

    The record is exactly what the cache stores (see
    :mod:`repro.experiments.cache`): the session's per-flow stats and
    arrivals, which answer every startup delay.
    """
    setting = spec.setting
    tel = telemetry.current()
    with tel.span("replication", label=setting.name,
                  scheme=spec.scheme, seed=spec.seed,
                  duration_s=spec.duration_s):
        run = build_run(
            setting.mu, spec.duration_s, setting.path_configs(),
            scheme=spec.scheme,
            shared_bottleneck=setting.shared_bottleneck,
            queue_discipline=setting.queue_discipline, seed=spec.seed,
            send_buffer_pkts=spec.send_buffer_pkts)
        result = run.run()
        return {
            "flow_stats": [stats for s in result.sessions
                           for stats in s.flow_stats],
            "sessions": [session_record(s.total_packets, s.arrivals)
                         for s in result.sessions],
        }


def solve_model(task: ModelTask) -> LateFractionEstimate:
    """Run one model Monte-Carlo solve."""
    tel = telemetry.current()
    with tel.span("solve", tau=task.tau, seed=task.seed,
                  flows=len(task.flows)):
        model = DmpModel(list(task.flows), mu=task.mu, tau=task.tau)
        return model.late_fraction_mc(horizon_s=task.horizon_s,
                                      seed=task.seed)


class _CapturedCall:
    """Picklable wrapper: run ``fn(item)`` in the worker under a fresh
    telemetry session and ship the session home with the result.

    Returns ``(result, session.portable(), t0, t1)`` where the
    timestamps come from the worker's monotonic clock — system-wide on
    Linux, hence comparable with the parent's submit times.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, item: Any) \
            -> Tuple[Any, Dict[str, Any], float, float]:
        with telemetry.session() as captured:
            t0 = captured.clock.now()
            result = self.fn(item)
            t1 = captured.clock.now()
        return result, captured.portable(), t0, t1


class ReplicationExecutor:
    """Order-preserving map over processes with serial fallback."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = default_max_workers()
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers

    def map(self, fn: Callable[[T], R],
            items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving input order."""
        work = list(items)
        workers = min(self.max_workers, len(work))
        tel = telemetry.current()
        with tel.span("executor.map", items=len(work),
                      workers=workers) as sp:
            if workers <= 1:
                if sp is not None:
                    sp.attrs["mode"] = "serial"
                return [self._run_inline(fn, item, tel)
                        for item in work]
            try:
                return self._run_pool(fn, work, workers, tel, sp)
            except (ImportError, OSError, PermissionError) as exc:
                warnings.warn(
                    f"process pool unavailable ({exc!r}); "
                    "running serially", RuntimeWarning, stacklevel=2)
                if tel.active:
                    tel.metrics.counter(
                        "executor.serial_fallback").inc()
                if sp is not None:
                    sp.attrs["mode"] = "fallback"
                return [self._run_inline(fn, item, tel)
                        for item in work]

    def _run_pool(self, fn: Callable[[T], R], work: List[T],
                  workers: int, tel: telemetry.Telemetry,
                  sp: Optional[telemetry.Span]) -> List[R]:
        from concurrent.futures import ProcessPoolExecutor
        call: Callable[[T], Any] = \
            _CapturedCall(fn) if tel.active else fn
        results: List[Any] = [None] * len(work)
        failed: List[int] = []
        busy = 0.0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            submitted: List[float] = []
            futures = []
            for item in work:
                submitted.append(tel.clock.now())
                futures.append(pool.submit(call, item))
            for idx, future in enumerate(futures):
                try:
                    outcome = future.result()
                except Exception as exc:
                    warnings.warn(
                        f"parallel worker failed on item {idx} "
                        f"({exc!r}); retrying serially",
                        RuntimeWarning, stacklevel=2)
                    failed.append(idx)
                    continue
                if tel.active:
                    value, portable, t0, t1 = outcome
                    busy += self._merge_item(tel, portable,
                                             submitted[idx], t0, t1)
                    results[idx] = value
                else:
                    results[idx] = outcome
        if sp is not None:
            sp.attrs["mode"] = "parallel"
            sp.timing["busy_s"] = busy
            window = tel.clock.now() - sp.t0
            if window > 0:
                tel.metrics.gauge("executor.utilization").set(
                    busy / (workers * window))
        for idx in failed:
            if tel.active:
                tel.metrics.counter("executor.crash_retry").inc()
            with tel.span("retry", index=idx):
                # Second failure propagates: it is not a pool problem.
                results[idx] = self._run_inline(fn, work[idx], tel)
        return results

    def _run_inline(self, fn: Callable[[T], R], item: T,
                    tel: telemetry.Telemetry) -> R:
        """Run one item in-process, mirroring the pooled item metrics
        (zero queue wait) so serial and parallel histograms line up."""
        if not tel.active:
            return fn(item)
        t0 = tel.clock.now()
        result = fn(item)
        elapsed = tel.clock.now() - t0
        tel.metrics.histogram("executor.item_seconds").record(elapsed)
        tel.metrics.histogram(
            "executor.queue_wait_seconds").record(0.0)
        return result

    @staticmethod
    def _merge_item(tel: telemetry.Telemetry,
                    portable: Dict[str, Any], submitted: float,
                    t0: float, t1: float) -> float:
        """Graft one worker session; returns the item's busy time."""
        wait = max(t0 - submitted, 0.0)
        run_s = max(t1 - t0, 0.0)
        for span in tel.merge(portable):
            span.timing["queue_wait_s"] = wait
        tel.metrics.histogram("executor.item_seconds").record(run_s)
        tel.metrics.histogram(
            "executor.queue_wait_seconds").record(wait)
        return run_s

    def run_replications(self, specs: Sequence[RunSpec]) \
            -> List[Dict[str, Any]]:
        return self.map(simulate_run, specs)

    def solve_models(self, tasks: Sequence[ModelTask]) \
            -> List[LateFractionEstimate]:
        return self.map(solve_model, tasks)


# ---------------------------------------------------------------------
# Process-wide default (wired by the CLI)
# ---------------------------------------------------------------------
_default: Dict[str, Optional[int]] = {"max_workers": None}


def configure(max_workers: Optional[int] = None) -> None:
    """Set the default worker count used when callers pass None.

    ``None`` restores the initial behaviour: ``$REPRO_WORKERS`` when
    set, otherwise serial execution.
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    _default["max_workers"] = max_workers


def default_max_workers() -> int:
    """Resolve the default worker count (configure > env > 1)."""
    configured = _default["max_workers"]
    if configured is not None:
        return configured
    env = os.environ.get(ENV_WORKERS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring non-integer {ENV_WORKERS}={env!r}",
                          RuntimeWarning)
    return 1
