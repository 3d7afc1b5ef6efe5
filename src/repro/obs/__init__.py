"""Simulator-wide observability: instrumentation bus, sinks, sampler.

See ``docs/observability.md`` for the probe-point catalogue, sink
descriptions and the JSONL schema.
"""

from repro.obs.bus import EventBus, Probe
from repro.obs.names import NAMES
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.sinks import (
    CountersSink,
    JsonlSink,
    RecordingSink,
    TraceSink,
    iter_jsonl,
    validate_jsonl,
)

__all__ = [
    "NAMES",
    "EventBus",
    "Probe",
    "TraceSink",
    "CountersSink",
    "RecordingSink",
    "JsonlSink",
    "TimeSeriesSampler",
    "iter_jsonl",
    "validate_jsonl",
]
