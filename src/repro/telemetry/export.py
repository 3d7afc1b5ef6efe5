"""Telemetry exporters: JSONL event log, Chrome trace, summary table.

The JSONL log is *streamed*: :class:`TelemetryJsonlWriter` registers
as a span listener and writes one flat line per span as it closes
(children before parents, with ``id``/``parent`` links), flushing
after every line — so a run aborted by an exception or a SIGKILL
leaves a valid, replayable prefix.  Metrics are appended on close,
each histogram as its :meth:`~repro.obs.health.LogHistogram.to_dict`.
It shares the :class:`~repro.obs.sinks.JsonlWriter` core with the
probe-event sink, and :func:`repro.obs.validate_jsonl` checks both.
Use it as a context manager; ``__exit__`` closes (and flushes) even
when the block raises.

The Chrome trace is the ``trace_event`` JSON format: open the file in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Spans
become complete (``"ph": "X"``) events; overlapping sibling spans —
replications merged from a worker pool — are fanned out over virtual
thread ids so parallelism is visible as stacked lanes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Mapping, Tuple, Union

from repro.obs.sinks import JSONL_SCHEMA_VERSION, JsonlWriter, iter_jsonl
from repro.telemetry.core import Metrics, Span, Telemetry


def _span_line(span: Span) -> Dict[str, Any]:
    return {
        "type": "span", "id": span.span_id, "parent": span.parent_id,
        "name": span.name, "label": span.label, "status": span.status,
        "t0": span.t0, "t1": span.t1,
        "attrs": dict(span.attrs), "timing": dict(span.timing),
    }


class TelemetryJsonlWriter(JsonlWriter):
    """Streams a session's spans (and final metrics) to JSONL,
    flushing after every line."""

    def __init__(self, tel: Telemetry,
                 target: Union[str, IO[str]]) -> None:
        super().__init__(target)
        self._tel = tel
        self._spans_written = 0
        self.write({"type": "meta", "schema": JSONL_SCHEMA_VERSION,
                    "source": "repro.telemetry"})
        tel.add_listener(self._on_span)

    def write(self, record: Mapping[str, Any]) -> None:
        super().write(record)
        self._handle.flush()

    def _on_span(self, span: Span) -> None:
        self.write(_span_line(span))
        self._spans_written += 1

    def close(self) -> None:
        """Detach, append metrics + end marker, flush; idempotent."""
        if self.closed:
            return
        self._tel.remove_listener(self._on_span)
        snapshot = self._tel.metrics.snapshot()
        for name, values in snapshot["counters"].items():
            self.write({"type": "counter", "name": name,
                        "values": values})
        for name, value in snapshot["gauges"].items():
            self.write({"type": "gauge", "name": name, "value": value})
        for name, data in snapshot["histograms"].items():
            self.write(dict({"type": "histogram", "name": name}, **data))
        self.write({"type": "end", "spans": self._spans_written})
        super().close()


def read_telemetry_jsonl(path: str) -> Tuple[List[Span], Metrics]:
    """Rebuild (root spans, metrics) from a JSONL log.

    Tolerates aborted logs: any well-formed prefix reconstructs the
    spans that had closed by the time the run died.
    """
    by_id: Dict[int, Span] = {}
    order: List[Tuple[int, int]] = []  # (span_id, parent_id) file order
    metrics = Metrics()
    for record in iter_jsonl(path):
        kind = record.get("type")
        if kind == "span":
            span = Span(
                name=str(record["name"]),
                label=str(record.get("label", "")),
                attrs=dict(record.get("attrs", {})),
                timing=dict(record.get("timing", {})),
                t0=float(record["t0"]), t1=float(record["t1"]),
                status=str(record.get("status", "ok")),
                span_id=int(record["id"]),
                parent_id=int(record["parent"]))
            by_id[span.span_id] = span
            order.append((span.span_id, span.parent_id))
        elif kind == "counter":
            metrics.merge({"counters": {record["name"]:
                                        record["values"]}})
        elif kind == "gauge":
            metrics.merge({"gauges": {record["name"]: record["value"]}})
        elif kind == "histogram":
            metrics.merge({"histograms": {record["name"]: record}})
    roots: List[Span] = []
    for span_id, parent_id in order:  # children precede parents
        parent = by_id.get(parent_id)
        if parent is not None:
            parent.children.append(by_id[span_id])
        else:
            roots.append(by_id[span_id])
    return roots, metrics


# ---------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------
def export_chrome_trace(tel: Telemetry, path: str) -> int:
    """Write the span tree as Chrome ``trace_event`` JSON.

    Returns the number of duration events written.  Sibling spans that
    overlap in time (parallel workers) are assigned distinct virtual
    ``tid`` lanes with a greedy first-fit, so the trace shows real
    concurrency; serial campaigns collapse onto one lane.
    """
    base = min((span.t0 for root in tel.roots
                for span in root.walk()), default=0.0)
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 0,
         "args": {"name": "repro campaign"}},
    ]

    next_tid = [1]

    def walk(span: Span, tid: int) -> None:
        title = f"{span.name} {span.label}".strip()
        args: Dict[str, Any] = dict(span.attrs)
        args.update(span.timing)
        args["status"] = span.status
        events.append({
            "name": title, "cat": span.name, "ph": "X",
            "ts": (span.t0 - base) * 1e6,
            "dur": span.duration_s * 1e6,
            "pid": 0, "tid": tid, "args": args,
        })
        # Greedy lane assignment: lane 0 is the parent's tid, new
        # lanes get fresh tids only when children genuinely overlap.
        lane_tids = [tid]
        lane_ends = [float("-inf")]
        for child in sorted(span.children,
                            key=lambda s: (s.t0, s.span_id)):
            for lane, end in enumerate(lane_ends):
                if end <= child.t0 + 1e-9:
                    break
            else:
                lane = len(lane_ends)
                lane_ends.append(float("-inf"))
                lane_tids.append(next_tid[0])
                next_tid[0] += 1
            lane_ends[lane] = child.t1
            walk(child, lane_tids[lane])

    for root in tel.roots:
        walk(root, 0)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return sum(1 for event in events if event["ph"] == "X")


# ---------------------------------------------------------------------
# Terminal summary
# ---------------------------------------------------------------------
def summary(tel: Telemetry) -> str:
    """End-of-campaign text table: span aggregates, counters, derived
    rates (cache hit rate, worker utilization)."""
    agg: Dict[str, List[float]] = {}  # name -> [count, total_s]
    for root in tel.roots:
        for span in root.walk():
            entry = agg.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += span.duration_s
    lines = ["telemetry summary"]
    if agg:
        width = max(len(name) for name in agg)
        lines.append(f"  {'span':<{width}}  {'count':>7}  "
                     f"{'total s':>10}  {'mean s':>10}")
        for name, (count, total) in agg.items():
            lines.append(
                f"  {name:<{width}}  {int(count):>7}  {total:>10.3f}"
                f"  {total / count if count else 0.0:>10.4f}")
    counters = tel.metrics.counters()
    if counters:
        lines.append("  counters:")
        for counter in counters:
            labels = ", ".join(
                f"{label or '-'}={n}"
                for label, n in sorted(counter.values.items()))
            lines.append(f"    {counter.name} = {counter.total}"
                         + (f"  ({labels})" if labels else ""))
    hits = sum(c.total for c in counters if c.name == "cache.hit")
    misses = sum(c.total for c in counters if c.name == "cache.miss")
    if hits or misses:
        rate = 100.0 * hits / (hits + misses)
        lines.append(f"  cache hit rate: {rate:.1f}%"
                     f"  ({hits} hits / {misses} misses)")
    for gauge in tel.metrics.gauges():
        if gauge.value is None:
            continue
        if gauge.name == "executor.utilization":
            lines.append(
                f"  worker utilization: {100.0 * gauge.value:.1f}%")
        else:
            lines.append(f"  {gauge.name} = {gauge.value:.4g}")
    histograms = {name: hist for name, hist
                  in tel.metrics.histograms().items() if hist.count}
    if histograms:
        lines.append("  histograms:")
        for name, hist in histograms.items():
            lines.append(
                f"    {name}: n={hist.count}"
                f" mean={hist.mean():.4f}s"
                f" p50={hist.quantile(0.5):.4f}s"
                f" p99={hist.quantile(0.99):.4f}s"
                f" max={hist.max:.4f}s")
    return "\n".join(lines)
