"""Campaign-scoped telemetry: spans, metrics, exporters.

Quick start::

    from repro import telemetry
    from repro.experiments.figures import build_fig8
    from repro.experiments.runner import scale_profile

    with telemetry.session() as tel:
        with tel.span("campaign", label="fig8"):
            build_fig8(scale_profile("quick"))
    print(telemetry.summary(tel))

Library code never starts sessions; it asks for the ambient one::

    tel = telemetry.current()          # NULL_TELEMETRY when inactive
    with tel.span("solve", tau=task.tau):
        ...
    if tel.active:
        tel.metrics.counter("cache.hit").inc(label="model")

Every span, counter, gauge and histogram name is an entry of the one
name table, :data:`repro.obs.names.NAMES` (kind, label names, help),
shared with the simulator's probes and the health exposition; the
accessors reject undeclared names and repro-lint RL003 checks every
literal call site.  To add a name, add its entry there and call it
with a literal name.  Histograms are
:class:`~repro.obs.health.LogHistogram`: ``record`` a value, read
``quantile(0.99)``; worker merges add integer bucket counts.

See :mod:`repro.telemetry.core` for the tracer and the worker merge
protocol, and :mod:`repro.telemetry.export` for the JSONL /
Chrome-trace / summary exporters (:func:`repro.obs.validate_jsonl`
checks a telemetry log).
"""

from repro.telemetry.clock import Clock, VirtualClock, WallClock
from repro.telemetry.core import (Counter, Gauge, Metrics,
                                  NULL_TELEMETRY, NullTelemetry, Span,
                                  SpanHandle, Telemetry, current,
                                  session, start, stop)
from repro.telemetry.export import (TelemetryJsonlWriter,
                                    export_chrome_trace,
                                    read_telemetry_jsonl, summary)

__all__ = [
    "Clock", "VirtualClock", "WallClock",
    "Counter", "Gauge", "Metrics",
    "NULL_TELEMETRY", "NullTelemetry", "Span", "SpanHandle",
    "Telemetry", "current", "session", "start", "stop",
    "TelemetryJsonlWriter", "export_chrome_trace",
    "read_telemetry_jsonl", "summary",
]
