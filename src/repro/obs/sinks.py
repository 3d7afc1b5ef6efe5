"""Pluggable sinks for the instrumentation bus.

* :class:`TraceSink` — compatibility sink reproducing the historical
  :class:`~repro.sim.trace.PacketTrace` records (bit-identical to the
  pre-bus ``trace=`` plumbing, so the Section-6 estimation in
  :mod:`repro.experiments.measure` is unchanged).
* :class:`CountersSink` — a per-topic event counter registry.
* :class:`JsonlSink` — streams every event as one JSON line; memory is
  bounded because records go straight to the file handle.  Its
  :class:`JsonlWriter` core and :func:`event_record` builder also write
  the flight recorder's dumps and the telemetry log, and
  :func:`validate_jsonl` checks all three.
* :class:`RecordingSink` — keeps ``(topic, time, values)`` triples in
  memory, packets snapshotted at emission; the workhorse of
  determinism tests.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import (Any, Dict, IO, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, TypeVar, Union)

from repro.obs.health import LogHistogram
from repro.obs.names import NAMES
from repro.sim.packet import Packet
from repro.sim.trace import PacketTrace

W = TypeVar("W", bound="JsonlWriter")

#: Topics the PacketTrace compatibility sink listens to, mapped to the
#: historical TraceRecord event names.
_TRACE_EVENTS = {
    "link.enqueue": "enqueue",
    "link.send": "send",
    "link.recv": "recv",
    "link.drop": "drop",
}


class TraceSink:
    """Bridge ``link.*`` probe events into a :class:`PacketTrace`.

    ``links`` restricts capture to a set of link names (the historical
    behaviour of tracing only the bottleneck links); ``None`` captures
    every link.
    """

    patterns = tuple(_TRACE_EVENTS)

    def __init__(self, trace: Optional[PacketTrace] = None,
                 links: Optional[Iterable[str]] = None) -> None:
        self.trace = trace if trace is not None else PacketTrace()
        self._links = frozenset(links) if links is not None else None

    def __call__(self, topic: str, time: float,
                 values: Tuple[Any, ...]) -> None:
        link = values[0]
        if self._links is not None and link not in self._links:
            return
        self.trace.record(time, _TRACE_EVENTS[topic], link, values[1])


class CountersSink:
    """Count events per topic (a minimal metrics registry)."""

    patterns = ("*",)

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def __call__(self, topic: str, time: float,
                 values: Tuple[Any, ...]) -> None:
        self.counts[topic] += 1

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def summary(self) -> str:
        """One line per topic, sorted, for CLI run summaries."""
        lines = [f"  {topic:24s} {count}"
                 for topic, count in sorted(self.counts.items())]
        return "\n".join(lines) if lines else "  (no events)"


class RecordingSink:
    """Keep every event in memory as ``(topic, time, values)``.

    A :class:`~repro.sim.packet.Packet` value is recorded as its
    :meth:`~repro.sim.packet.Packet.snapshot`, so a pooled run cannot
    rewrite what was recorded when it recycles the packet.
    """

    def __init__(self, patterns: Sequence[str] = ("*",)) -> None:
        self.patterns: Tuple[str, ...] = tuple(patterns)
        self.events: List[Tuple[str, float, Tuple[Any, ...]]] = []

    def __call__(self, topic: str, time: float,
                 values: Tuple[Any, ...]) -> None:
        self.events.append((topic, time, tuple(
            v.snapshot() if isinstance(v, Packet) else v
            for v in values)))


def _jsonify(value: Any) -> Any:
    """Best-effort JSON projection of a probe value."""
    if isinstance(value, Packet):
        return {"uid": value.uid, "src": value.src, "dst": value.dst,
                "sport": value.sport, "dport": value.dport,
                "seq": value.seq, "ack": value.ack, "size": value.size,
                "is_ack": value.is_ack,
                "is_retransmit": value.is_retransmit}
    if isinstance(value, (bool, int, float, str, dict)) or value is None:
        return value
    number = getattr(value, "number", None)  # VideoPacket and friends
    if number is not None:
        return {"number": number}
    return repr(value)


def event_record(topic: str, time: float,
                 values: Tuple[Any, ...]) -> Dict[str, Any]:
    """One probe event as a JSONL record: ``{"topic", "t", <field>:
    <value>, ...}`` with the fields the topic declares in NAMES."""
    record: Dict[str, Any] = {"topic": topic, "t": time}
    for field, value in zip(NAMES[topic][1], values):
        record[field] = _jsonify(value)
    return record


class JsonlWriter:
    """One JSON-lines output: a path (opened and owned by the writer)
    or an open file handle (borrowed).

    Use it as a context manager: ``__exit__`` calls :meth:`close` even
    when the block raises, which flushes the stream (borrowed handles
    included) — an aborted run leaves a valid, replayable whole-line
    prefix on disk, never a truncated buffer.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self._closed = False
        self.lines_written = 0

    def write(self, record: Mapping[str, Any]) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self.lines_written += 1

    @property
    def closed(self) -> bool:
        return self._closed or self._handle.closed

    def close(self) -> None:
        """Flush buffered lines; close the handle if the writer owns
        it.  Idempotent."""
        if self.closed:
            return
        self._closed = True
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self: W) -> W:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class JsonlSink(JsonlWriter):
    """Stream probe events to a file as JSON lines (one
    :func:`event_record` each) with bounded memory."""

    def __init__(self, target: Union[str, IO[str]],
                 patterns: Sequence[str] = ("*",)) -> None:
        super().__init__(target)
        self.patterns: Tuple[str, ...] = tuple(patterns)

    def __call__(self, topic: str, time: float,
                 values: Tuple[Any, ...]) -> None:
        self.write(event_record(topic, time, values))


def iter_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Yield the records of a JSONL trace file."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


#: Version of the telemetry JSONL format (its ``meta`` record).
JSONL_SCHEMA_VERSION = 2


def _number(value: Any) -> bool:
    """A finite JSON number (not a bool)."""
    return isinstance(value, (int, float)) \
        and not isinstance(value, bool) and math.isfinite(value)


def _kind(name: Any) -> Optional[str]:
    entry = NAMES.get(name) if isinstance(name, str) else None
    return entry[0] if entry is not None else None


def _check_metric(kind: str, record: Mapping[str, Any]) -> bool:
    """Whether a counter/gauge/histogram record carries a readable
    payload."""
    if kind == "counter":
        values = record.get("values")
        return isinstance(values, dict) and all(
            isinstance(n, int) and not isinstance(n, bool)
            for n in values.values())
    if kind == "gauge":
        return _number(record.get("value"))
    try:
        hist = LogHistogram.from_dict(record)
    except (AttributeError, TypeError, ValueError):
        return False
    snapshot = hist.to_dict()
    return {key: record.get(key) for key in snapshot} == snapshot \
        and sum(hist.buckets.values()) + hist.zero_count == hist.count


def validate_jsonl(path: str) -> int:
    """Validate a JSONL log against :data:`repro.obs.names.NAMES`.

    Reads both record families, line by line:

    * probe events (``"topic"``, from :class:`JsonlSink` or a flight
      recorder dump): a declared probe, a finite numeric time, and
      exactly the topic's fields;
    * telemetry records (``"type"``, from ``TelemetryJsonlWriter``):
      a ``meta`` record of schema :data:`JSONL_SCHEMA_VERSION` first,
      then declared spans with sane ids and timestamps, metric records
      whose payload reads back (counter values ``str -> int``, a gauge
      number, a histogram that round-trips through
      :meth:`LogHistogram.from_dict` with buckets plus zeros equal to
      its count), and an optional ``end`` marker whose span count
      matches.  A missing ``end`` is fine: aborted runs stop
      mid-stream by design.

    Returns the number of records; raises ``ValueError`` naming the
    first bad line.
    """
    records = spans = 0
    meta = False
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{where}: bad JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{where}: not an object")
            records += 1
            if "topic" in record:
                topic = record["topic"]
                if _kind(topic) != "probe":
                    raise ValueError(
                        f"{where}: unknown topic {topic!r}")
                if not _number(record.get("t")):
                    raise ValueError(f"{where}: missing/invalid time")
                expected = set(NAMES[topic][1]) | {"topic", "t"}
                if set(record) != expected:
                    raise ValueError(
                        f"{where}: fields {sorted(record)} != schema "
                        f"{sorted(expected)} for topic {topic!r}")
                continue
            kind = record.get("type")
            if kind == "meta":
                if record.get("schema") != JSONL_SCHEMA_VERSION:
                    raise ValueError(
                        f"{where}: unsupported schema "
                        f"{record.get('schema')!r}")
                meta = True
                continue
            if not meta:
                raise ValueError(
                    f"{where}: telemetry record before the 'meta' "
                    "record")
            name = record.get("name")
            if kind in ("span", "counter", "gauge", "histogram") \
                    and _kind(name) != kind:
                raise ValueError(f"{where}: undeclared {kind} {name!r}")
            if kind == "span":
                span_id, parent = record.get("id"), record.get("parent")
                if not (type(span_id) is int and span_id >= 1
                        and type(parent) is int):
                    raise ValueError(f"{where}: bad span id/parent")
                t0, t1 = record.get("t0"), record.get("t1")
                if not (_number(t0) and _number(t1) and t1 >= t0):
                    raise ValueError(f"{where}: bad span timestamps")
                spans += 1
            elif kind in ("counter", "gauge", "histogram"):
                if not _check_metric(kind, record):
                    raise ValueError(
                        f"{where}: unreadable {kind} payload for "
                        f"{name!r}")
            elif kind == "end":
                if record.get("spans") != spans:
                    raise ValueError(
                        f"{where}: end marker says "
                        f"{record.get('spans')} spans, saw {spans}")
            else:
                raise ValueError(
                    f"{where}: unknown record type {kind!r}")
    if records == 0:
        raise ValueError(f"{path}: empty JSONL log")
    return records
