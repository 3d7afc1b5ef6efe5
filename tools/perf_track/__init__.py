"""Perf-trajectory tracking for the ``benchmarks/perf`` harness.

``BENCH_perf.json`` (written by ``benchmarks/perf/run.py``) is a
one-shot snapshot; this tool turns snapshots into a trajectory:

* every run is appended to a JSONL **history** file
  (``BENCH_history.jsonl``, gitignored), so the perf evolution of a
  branch survives across invocations and CI artifacts;
* the new snapshot is **compared against the committed baseline**
  with a relative tolerance, exiting non-zero on a regression —
  wired into the CI perf-smoke job.

Comparison rules (the committed baseline is typically a ``full``-mode
run from a developer machine, while CI runs ``quick`` mode on a
different machine, so naive comparison would be meaningless):

* **Absolute metrics gate only on the same machine fingerprint and
  mode** (cpu model/count, python, numpy):
  ``packet_sim.events_per_second``, the per-N multi-session event
  rates and the mc_kernel benchmark's total vectorized seconds.  On a
  different machine, or against a baseline of the other mode, they
  are reported for information only.  The default baseline resolves
  per mode (:func:`resolve_baseline`): a quick report gates against
  the committed ``BENCH_perf.quick.json``, a full report against
  ``BENCH_perf.json``.
* **Tiny timings never gate**: chain-build/compile times are
  single-digit milliseconds and dominated by allocator noise.
* **Within-report gates are machine-free** and therefore gate
  everywhere: the multi-session scaling, pool-reuse and
  health-instrumentation-overhead contracts, and
  the mean-field backend's N-independence (the N=10^6 solve within
  10x of the N=10 solve; the 10^6-session grid at least 100x faster
  than the packet-sim cost extrapolated from the measured N=1000
  point).  Both sides of each ratio come from one snapshot on one
  machine.

Exit codes: 0 = no regression, 1 = regression, 2 = bad input.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

DEFAULT_BASELINE = "BENCH_perf.json"
DEFAULT_HISTORY = "BENCH_history.jsonl"


def resolve_baseline(mode: Optional[str],
                     directory: str = ".") -> str:
    """Pick the committed baseline matching ``mode``.

    ``BENCH_perf.<mode>.json`` when it exists (so quick CI runs gate
    against the committed quick-mode numbers), the full-mode
    :data:`DEFAULT_BASELINE` otherwise.
    """
    if mode:
        candidate = os.path.join(directory,
                                 f"BENCH_perf.{mode}.json")
        if os.path.exists(candidate):
            return candidate
    return os.path.join(directory, DEFAULT_BASELINE)

#: Relative drop tolerated before a gated metric counts as a
#: regression (0.35 = new value may be up to 35% worse).  Timings on
#: shared machines are noisy; the synthetic canaries in CI inject
#: collapses far outside this band.
DEFAULT_TOLERANCE = 0.35

FINGERPRINT_KEYS = ("cpu_model", "cpu_count", "python", "numpy")


@dataclass
class MetricResult:
    """One compared metric; ``ratio`` is new/baseline, higher=better."""

    name: str
    baseline: float
    new: float
    ratio: float
    gated: bool
    regressed: bool
    threshold: Optional[float] = None
    note: str = ""


@dataclass
class Comparison:
    """Outcome of comparing a new snapshot against the baseline."""

    results: List[MetricResult] = field(default_factory=list)
    same_machine: bool = False

    @property
    def regressions(self) -> List[MetricResult]:
        return [r for r in self.results if r.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def load_report(path: str) -> Dict[str, Any]:
    """Load and minimally validate one BENCH_perf.json document."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "benchmarks" not in doc:
        raise ValueError(f"{path}: not a perf report "
                         "(missing 'benchmarks')")
    return doc


def fingerprint(doc: Dict[str, Any]) -> Dict[str, Any]:
    machine = doc.get("machine", {})
    return {key: machine.get(key) for key in FINGERPRINT_KEYS}


def _metric(doc: Dict[str, Any], *path: str) -> Optional[float]:
    node: Any = doc.get("benchmarks", {})
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def compare(new_doc: Dict[str, Any], base_doc: Dict[str, Any],
            tolerance: float = DEFAULT_TOLERANCE) -> Comparison:
    """Compare a new snapshot against the baseline snapshot."""
    comp = Comparison()
    comp.same_machine = fingerprint(new_doc) == fingerprint(base_doc)

    # -- absolute metrics: gate only on the same machine --------------
    absolute_metrics: List[Tuple[str, Tuple[str, ...], bool]] = [
        ("packet_sim.events_per_second",
         ("packet_sim", "events_per_second"), True),
        ("mc_kernel.vectorized_seconds",
         ("mc_kernel", "total_seconds", "vectorized"), False),
    ]
    # One absolute event-rate metric per campaign session count the
    # new snapshot reports (older baselines simply lack the path and
    # the metric is skipped below).
    multi_by_n = new_doc.get("benchmarks", {}) \
        .get("multisession", {}).get("events_per_second_by_n", {})
    for count in sorted(multi_by_n, key=int):
        absolute_metrics.append((
            f"multisession.events_per_second.n{count}",
            ("multisession", "events_per_second_by_n", count), True))
    for name, path, higher_better in absolute_metrics:
        new_value = _metric(new_doc, *path)
        base_value = _metric(base_doc, *path)
        if new_value is None or base_value is None \
                or base_value <= 0 or new_value <= 0:
            continue
        ratio = (new_value / base_value) if higher_better \
            else (base_value / new_value)
        gate = comp.same_machine \
            and new_doc.get("mode") == base_doc.get("mode")
        threshold = (1.0 - tolerance) if gate else None
        comp.results.append(MetricResult(
            name=name, baseline=base_value, new=new_value,
            ratio=ratio, gated=gate,
            regressed=bool(gate and threshold is not None
                           and ratio < threshold),
            threshold=threshold,
            note="" if gate else
            "info only (different machine or mode)"))

    # -- within-report scaling gate: machine-independent --------------
    # The multi-session refactor's contract: per-event cost must not
    # blow up with session count, i.e. the N=200 event rate holds
    # within 3x of the N=10 rate *of the same snapshot*.  Both numbers
    # come from one process on one machine, so this gates everywhere.
    eps_10 = _metric(new_doc, "multisession",
                     "events_per_second_by_n", "10")
    eps_200 = _metric(new_doc, "multisession",
                      "events_per_second_by_n", "200")
    if eps_10 is not None and eps_200 is not None and eps_10 > 0:
        floor = eps_10 / 3.0
        comp.results.append(MetricResult(
            name="multisession.scaling_n200_vs_n10",
            baseline=floor, new=eps_200,
            ratio=eps_200 / floor, gated=True,
            regressed=eps_200 < floor, threshold=1.0,
            note="within-report: N=200 rate >= N=10 rate / 3"))

    # PacketPool audit at the largest packet-sim population: the pool
    # must actually recycle packets at N=1000 (reuse fraction >= 0.5)
    # rather than degenerate into straight allocation.  Counter ratio
    # from one process — machine-free, gates everywhere.
    reuse = None
    for point in new_doc.get("benchmarks", {}) \
            .get("multisession", {}).get("points", []):
        if point.get("n_sessions") == 1000:
            reuse = point.get("pool", {}).get("reuse_fraction")
    if isinstance(reuse, (int, float)):
        floor = 0.5
        comp.results.append(MetricResult(
            name="multisession.pool_reuse_n1000",
            baseline=floor, new=float(reuse),
            ratio=float(reuse) / floor, gated=True,
            regressed=float(reuse) < floor, threshold=1.0,
            note="within-report: pool reuse fraction >= 0.5 "
                 "at N=1000"))

    # Health-layer overhead contract: the N=200 campaign with the
    # streaming QoE aggregator + armed flight recorder attached must
    # process events at >= 90% of the bare N=200 rate of the same
    # snapshot.  Both rates come from one process — machine-free,
    # gates everywhere.
    overhead = new_doc.get("benchmarks", {}) \
        .get("multisession", {}).get("health_overhead", {})
    bare = overhead.get("bare_events_per_second")
    inst = overhead.get("instrumented_events_per_second")
    if isinstance(bare, (int, float)) and bare > 0 \
            and isinstance(inst, (int, float)) and inst > 0:
        floor = 0.9 * float(bare)
        comp.results.append(MetricResult(
            name="multisession.health_overhead_n200",
            baseline=floor, new=float(inst),
            ratio=float(inst) / floor, gated=True,
            regressed=float(inst) < floor, threshold=1.0,
            note="within-report: instrumented rate >= 0.9x bare "
                 "at N=200"))

    # -- mean-field within-report gates: machine-independent ----------
    # The population backend's contract is N-independent solve time:
    # the N=10^6 solve must stay within 10x of the N=10 solve of the
    # same snapshot, and the 10^6-session (ratio, tau) grid must beat
    # the packet-sim cost extrapolated from the measured N=1000 run by
    # at least 100x.
    mf_10 = _metric(new_doc, "meanfield", "solve_seconds_by_n", "10")
    mf_1e6 = _metric(new_doc, "meanfield", "solve_seconds_by_n",
                     "1000000")
    if mf_10 is not None and mf_1e6 is not None and mf_10 > 0:
        ceiling = 10.0 * mf_10
        comp.results.append(MetricResult(
            name="meanfield.scaling_n1e6_vs_n10",
            baseline=ceiling, new=mf_1e6,
            ratio=ceiling / mf_1e6, gated=True,
            regressed=mf_1e6 > ceiling, threshold=1.0,
            note="within-report: N=10^6 solve <= 10x N=10 solve"))
    grid_speedup = _metric(new_doc, "meanfield", "grid",
                           "speedup_vs_extrapolated")
    if grid_speedup is not None:
        floor = 100.0
        comp.results.append(MetricResult(
            name="meanfield.speedup_vs_extrapolated",
            baseline=floor, new=grid_speedup,
            ratio=grid_speedup / floor, gated=True,
            regressed=grid_speedup < floor, threshold=1.0,
            note="within-report: 10^6-session grid >= 100x "
                 "extrapolated packet cost"))

    # -- verify solver timings: never gate ----------------------------
    # Certified-envelope solve time tracks the z3 version and its
    # search heuristics (or the exhaustive engine's pruning), not this
    # repository's code: report matched (T, K) instances, never gate.
    new_ver = new_doc.get("benchmarks", {}).get("verify", {}) \
        .get("seconds_by_instance", {})
    base_ver = base_doc.get("benchmarks", {}).get("verify", {}) \
        .get("seconds_by_instance", {})
    for key in sorted(set(new_ver) & set(base_ver)):
        new_value = new_ver[key]
        base_value = base_ver[key]
        if not isinstance(new_value, (int, float)) \
                or not isinstance(base_value, (int, float)) \
                or new_value <= 0 or base_value <= 0:
            continue
        comp.results.append(MetricResult(
            name=f"verify.seconds.{key}",
            baseline=float(base_value), new=float(new_value),
            ratio=float(base_value) / float(new_value), gated=False,
            regressed=False, note="info only (solver wall time)"))

    # -- tiny timings: never gate -------------------------------------
    for name, path in (
            ("chain_build.compile_seconds",
             ("chain_build", "compile_seconds")),
            ("chain_build.chain_build_seconds",
             ("chain_build", "chain_build_seconds"))):
        new_value = _metric(new_doc, *path)
        base_value = _metric(base_doc, *path)
        if new_value is None or base_value is None \
                or base_value <= 0 or new_value <= 0:
            continue
        comp.results.append(MetricResult(
            name=name, baseline=base_value, new=new_value,
            ratio=base_value / new_value, gated=False,
            regressed=False, note="info only (sub-10ms timing)"))
    return comp


def append_history(history_path: str, new_doc: Dict[str, Any],
                   comp: Comparison, source: str) -> None:
    """Append one JSONL line describing this run to the history file.

    The timestamp is the report's own ``created_utc`` (written by the
    harness), so this tool needs no wall-clock access of its own.
    """
    line = {
        "source": source,
        "created_utc": new_doc.get("created_utc"),
        "mode": new_doc.get("mode"),
        "machine": fingerprint(new_doc),
        "metrics": {r.name: r.new for r in comp.results},
        "ratios": {r.name: r.ratio for r in comp.results},
        "same_machine": comp.same_machine,
        "verdict": "ok" if comp.ok else "regression",
    }
    directory = os.path.dirname(os.path.abspath(history_path))
    os.makedirs(directory, exist_ok=True)
    with open(history_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def format_report(comp: Comparison) -> str:
    """Human-readable comparison table."""
    lines = []
    width = max((len(r.name) for r in comp.results), default=4)
    lines.append(f"{'metric':<{width}}  {'baseline':>12}  "
                 f"{'new':>12}  {'ratio':>7}  verdict")
    for r in comp.results:
        if r.regressed:
            verdict = "REGRESSION"
        elif r.gated:
            verdict = "ok"
        else:
            verdict = "info"
        extra = f" [{r.note}]" if r.note else ""
        if r.threshold is not None:
            extra = f" (gate at {r.threshold:.2f}){extra}"
        lines.append(f"{r.name:<{width}}  {r.baseline:>12.4g}  "
                     f"{r.new:>12.4g}  {r.ratio:>7.3f}  "
                     f"{verdict}{extra}")
    if not comp.results:
        lines.append("no comparable metrics found")
    return "\n".join(lines)
