"""Parallel fan-out of replicated simulations and model solves.

The paper's methodology is 30 replications x 10,000 simulated seconds
per setting; each replication is an independent pure function of its
seed, so the natural unit of parallelism is one packet run (one
:func:`~repro.experiments.scenarios.build_run`).  On the model side the
unit is a batch of ``late_fraction_mc`` solves (one per startup delay
or grid point): :meth:`ReplicationExecutor.solve_models` splits a batch
into one contiguous chunk per worker, and :func:`solve_batch` runs each
chunk's solves as lanes of one lockstep kernel loop per flow count.
:class:`ReplicationExecutor` fans those units out over a
``concurrent.futures.ProcessPoolExecutor``.

Determinism is the contract: replication ``run`` always gets seed
``seed0 + run``, every model solve draws from its own seeded stream,
and the work is executed by the *same* top-level functions
(:func:`simulate_run`, :func:`solve_batch`) whether it runs in a worker
process or inline, so parallel results are bit-identical to serial
ones and cache keys are stable.

Telemetry: when a :mod:`repro.telemetry` session is active, every
``map`` opens an ``executor.map`` span, work functions open their own
``replication``/``solve`` spans, and pooled items run under a fresh
session in the worker (:class:`_CapturedCall`) whose spans are merged
back in submit order — so the merged tree of a parallel campaign has
the same :meth:`Span.signature` as the serial one, up to model batches
of more than one task, which open one ``solve`` span per worker chunk
and flow count.  Queue waits, item
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
from repro.experiments.scenarios import build_run
from repro.model.dmp_model import (DmpModel, LateFractionEstimate,
                                   check_model_inputs)
from repro.model.mc_kernel import stationary_late_fractions
from repro.model.tcp_chain import FlowParams, TcpFlowChain
from repro.sim.topology import PathConfig

ENV_WORKERS = "REPRO_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class RunSpec:
    """Everything one replication is built from, picklable: the
    arguments of :func:`~repro.experiments.scenarios.build_run`, with
    its keyword arguments (``scheme``, ``queue_discipline``...) as
    sorted ``(name, value)`` pairs in ``options``."""

    mu: float
    duration_s: float
    paths: Tuple[PathConfig, ...]
    seed: int
    options: Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True)
class ModelTask:
    """One ``late_fraction_mc`` solve, picklable; rejects what
    :class:`~repro.model.dmp_model.DmpModel` rejects, and a
    non-positive horizon."""

    flows: Tuple[FlowParams, ...]
    mu: float
    tau: float
    horizon_s: float
    seed: int

    def __post_init__(self) -> None:
        check_model_inputs(self.flows, self.mu, self.tau)
        if self.horizon_s <= 0:
            raise ValueError("horizon must be positive")


def simulate_run(spec: RunSpec) -> Dict[str, Any]:
    """Run one replication; returns a JSON-able record.

    The record is exactly what the cache stores (see
    :mod:`repro.experiments.cache`): the session's per-flow stats and
    arrivals, which answer every startup delay.
    """
    tel = telemetry.current()
    with tel.span("replication", seed=spec.seed,
                  duration_s=spec.duration_s):
        result = build_run(spec.mu, spec.duration_s, spec.paths,
                           seed=spec.seed, **dict(spec.options)).run()
        return {
            "flow_stats": [stats for s in result.sessions
                           for stats in s.flow_stats],
            "sessions": [session_record(s.total_packets, s.arrivals)
                         for s in result.sessions],
        }


def solve_batch(tasks: Sequence[ModelTask]) -> List[LateFractionEstimate]:
    """Solve a batch of model tasks; one estimate per task, in order.

    Every task's model is built first, on one chain per distinct
    :class:`FlowParams` (the kernel compiles each chain once per call),
    then the tasks of each flow count K go to the stationary kernel as
    one lockstep call, under one ``solve`` span.  Each solve keeps its
    own random stream, so an estimate does not depend on the batch it
    was solved in.
    """
    chains = {flow: TcpFlowChain(flow) for flow in dict.fromkeys(
        flow for task in tasks for flow in task.flows)}
    solves = [DmpModel([chains[flow] for flow in task.flows], mu=task.mu,
                       tau=task.tau).stationary_solve(task.horizon_s,
                                                      task.seed)
              for task in tasks]
    by_k: Dict[int, List[int]] = {}
    for idx, task in enumerate(tasks):
        by_k.setdefault(len(task.flows), []).append(idx)
    results: Dict[int, LateFractionEstimate] = {}
    tel = telemetry.current()
    for k, group in by_k.items():
        with tel.span("solve", tasks=len(group), flows=k):
            results.update(zip(group, stationary_late_fractions(
                [solves[idx] for idx in group])))
    return [results[idx] for idx in range(len(tasks))]


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
        """One estimate per task, in order: the tasks split into (at
        most) one contiguous chunk per worker, each chunk one
        :func:`solve_batch` call."""
        work = list(tasks)
        if not work:
            return []
        chunks = min(self.max_workers, len(work))
        bounds = [len(work) * i // chunks for i in range(chunks + 1)]
        return [estimate for batch in self.map(
                    solve_batch, [work[a:b] for a, b in
                                  zip(bounds, bounds[1:])])
                for estimate in batch]


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
