"""Pluggable sinks for the instrumentation bus.

* :class:`TraceSink` — compatibility sink reproducing the historical
  :class:`~repro.sim.trace.PacketTrace` records (bit-identical to the
  pre-bus ``trace=`` plumbing, so the Section-6 estimation in
  :mod:`repro.experiments.measure` is unchanged).
* :class:`CountersSink` — a per-topic event counter registry.
* :class:`JsonlSink` — streams every event as one JSON line; memory is
  bounded because records go straight to the file handle.
* :class:`RecordingSink` — keeps ``(topic, time, values)`` triples in
  memory, packets snapshotted at emission; the workhorse of
  determinism tests.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import (Any, Dict, IO, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.obs.bus import SCHEMA
from repro.sim.packet import Packet
from repro.sim.trace import PacketTrace

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
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    number = getattr(value, "number", None)  # VideoPacket and friends
    if number is not None:
        return {"number": number}
    return repr(value)


class JsonlSink:
    """Stream events to a file as JSON lines with bounded memory.

    Each line is ``{"topic": ..., "t": ..., <field>: <value>, ...}``
    with the fields of the topic's schema.  Accepts a path (opened and
    owned by the sink) or an open file handle (borrowed).

    Use it as a context manager around the run: ``__exit__`` calls
    :meth:`close` even when the block raises, which flushes the stream
    (borrowed handles included) — an aborted run leaves a valid,
    replayable whole-line prefix on disk, never a truncated buffer.
    """

    def __init__(self, target: Union[str, IO[str]],
                 patterns: Sequence[str] = ("*",)) -> None:
        self.patterns: Tuple[str, ...] = tuple(patterns)
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self.lines_written = 0

    def __call__(self, topic: str, time: float,
                 values: Tuple[Any, ...]) -> None:
        record: Dict[str, Any] = {"topic": topic, "t": time}
        for field, value in zip(SCHEMA[topic], values):
            record[field] = _jsonify(value)
        self._handle.write(json.dumps(record) + "\n")
        self.lines_written += 1

    def close(self) -> None:
        """Flush buffered lines; close the handle if the sink owns it.

        Idempotent and exception-safe: called from ``__exit__`` so the
        log survives aborted runs intact.
        """
        if self._handle.closed:
            return
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def iter_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Yield the records of a JSONL trace file."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def validate_jsonl(path: str) -> int:
    """Validate a JSONL trace against the probe schema.

    Checks every line parses, names a known topic, carries a numeric
    time and exactly the topic's declared fields.  Returns the number
    of validated records; raises ``ValueError`` on the first bad line.
    """
    count = 0
    for lineno, record in enumerate(iter_jsonl(path), start=1):
        topic = record.get("topic")
        if topic not in SCHEMA:
            raise ValueError(f"line {lineno}: unknown topic {topic!r}")
        if not isinstance(record.get("t"), (int, float)):
            raise ValueError(f"line {lineno}: missing/invalid time")
        expected = set(SCHEMA[topic]) | {"topic", "t"}
        actual = set(record)
        if actual != expected:
            raise ValueError(
                f"line {lineno}: fields {sorted(actual)} != schema "
                f"{sorted(expected)} for topic {topic!r}")
        count += 1
    return count
