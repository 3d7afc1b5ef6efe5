"""Streaming per-session QoE health rollups for campaigns.

The paper's object of study is per-viewer quality — late fraction,
startup delay, starvation (Section 2, Figs 8-11) — but a 200-session
churn campaign produces far too many probe events to retain raw.  This
module keeps **O(1) state per session**: a :class:`HealthAggregator`
subscribes to the existing low-rate probe topics (``client.arrival``,
``link.drop``, ``campaign.session_done``) and maintains incremental
rollups — rebuffer count / total stall time, startup delay, late
fraction at a reference startup delay, per-path byte shares, cwnd /
send-buffer / bottleneck-queue occupancy summaries.  Sender state
(cwnd, send-buffer occupancy) and the bottleneck queue are *sampled*
on the simulated clock rather than observed per change — the
per-change ``tcp.cwnd``/``tcp.send_buffer`` topics fire up to twice
per packet, and subscribing them alone costs more than the whole
<= 10% instrumentation-overhead budget the perf gate enforces.

Distribution state lives in :class:`LogHistogram`, a deterministic
log-bucketed mergeable histogram (HdrHistogram-style):

* bucket arithmetic is **exact** — the index is derived from
  ``math.frexp``, pure integer work with no accumulated float error,
  and every bucket's lower edge reconstructs exactly via
  ``math.ldexp``;
* buckets are integer counters, so ``merge`` is integer addition —
  associative and commutative, and independent of merge order;
* the relative bucket width is at most ``1 / SUBBUCKETS``, which
  bounds the quantile error (see :meth:`LogHistogram.quantile`).

Stall accounting uses a freeze-resume playout clock in *arrival
order*: the j-th arriving packet is consumed at
``max(play_head, t_j)`` and the clock then advances by ``1/mu``.  When
an arrival finds the clock in the past the player was starved for
``t_j - play_head`` seconds — one rebuffer event, counted and summed
with O(1) state even under arbitrary reordering.  (The playback-order
late fraction at the reference tau is tracked separately per packet
number, also O(1).)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.obs.bus import EventBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Sub-buckets per power of two.  A power of two itself, so the
#: sub-bucket index is computed exactly; the relative width of any
#: bucket — and thus the worst-case quantile error — is 1/SUBBUCKETS.
SUBBUCKETS = 64


def bucket_index(value: float) -> int:
    """Exact bucket index for a positive finite ``value``.

    ``frexp`` splits ``value = m * 2**e`` with ``m`` in [0.5, 1); the
    mantissa range is cut into :data:`SUBBUCKETS` equal sub-buckets.
    Every step is exact float arithmetic (the sub-bucket boundaries
    are representable), so two processes always agree on the index.
    """
    mantissa, exponent = math.frexp(value)
    sub = int((mantissa - 0.5) * (2 * SUBBUCKETS))
    return exponent * SUBBUCKETS + sub


def bucket_lo(index: int) -> float:
    """Exact lower edge of bucket ``index`` (its representative)."""
    exponent, sub = divmod(index, SUBBUCKETS)
    return math.ldexp(0.5 + sub / (2 * SUBBUCKETS), exponent)


#: value -> bucket index memo shared by every histogram.  The hot
#: recording paths (cwnd, send-buffer and queue occupancies) see a few
#: dozen distinct small numbers millions of times, so one dict hit
#: replaces the frexp arithmetic; the cap bounds memory against
#: pathological value streams.  Pure-function cache — safe to share.
_BUCKET_CACHE: Dict[float, int] = {}
_BUCKET_CACHE_MAX = 1 << 16


class LogHistogram:
    """Deterministic mergeable log-bucketed histogram.

    Records non-negative finite floats.  Zero gets a dedicated bucket
    (log buckets cannot hold it); everything else lands in the bucket
    whose half-open range ``[lo, lo * (1 + 1/SUBBUCKETS))`` contains
    it.  ``merge`` adds integer counters, so it is associative and
    commutative and ``merge(a, b)`` equals ingesting the union of the
    two samples (the float ``sum`` is merged by addition, which is
    order-sensitive only in the last ulp).
    """

    __slots__ = ("buckets", "zero_count", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- ingest --------------------------------------------------------
    def record(self, value: float, n: int = 1) -> None:
        """Add ``n`` observations of ``value``."""
        if not (value >= 0.0) or math.isinf(value):
            raise ValueError(
                f"LogHistogram records non-negative finite values, "
                f"got {value!r}")
        if n < 1:
            raise ValueError(f"n must be >= 1: {n}")
        if value == 0.0:
            self.zero_count += n
        else:
            index = _BUCKET_CACHE.get(value)
            if index is None:
                index = bucket_index(value)
                if len(_BUCKET_CACHE) < _BUCKET_CACHE_MAX:
                    _BUCKET_CACHE[value] = index
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += n
        self.sum += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def record_many(self, values: Sequence[float]) -> None:
        for value in values:
            self.record(value)

    # -- merge ---------------------------------------------------------
    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` into this histogram (integer addition)."""
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max

    # -- queries -------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Deterministic quantile: the lower edge of the bucket holding
        the sample of rank ``min(count - 1, floor(q * count))``.

        Because the value-to-bucket map is monotone, this equals
        ``bucket_lo(bucket_index(v))`` for the exact order statistic
        ``v`` at that rank, so the result underestimates ``v`` by at
        most a factor ``1 / (1 + 1/SUBBUCKETS)`` — the error bound the
        hypothesis property pins.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1]: {q}")
        if self.count == 0:
            raise ValueError("quantile of an empty histogram")
        rank = min(self.count - 1, int(q * self.count))
        if rank < self.zero_count:
            return 0.0
        remaining = rank - self.zero_count
        for index in sorted(self.buckets):
            n = self.buckets[index]
            if remaining < n:
                return bucket_lo(index)
            remaining -= n
        raise AssertionError("rank beyond histogram count")  # pragma: no cover

    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of an empty histogram")
        return self.sum / self.count

    # -- serialization (cache records, dashboards) ---------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot; bucket keys sorted so equal histograms
        serialize to equal JSON text."""
        return {
            "buckets": {str(index): self.buckets[index]
                        for index in sorted(self.buckets)},
            "zero": self.zero_count,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LogHistogram":
        out = cls()
        for key, n in data.get("buckets", {}).items():
            out.buckets[int(key)] = int(n)
        out.zero_count = int(data.get("zero", 0))
        out.count = int(data.get("count", 0))
        out.sum = float(data.get("sum", 0.0))
        out.min = None if data.get("min") is None \
            else float(data["min"])
        out.max = None if data.get("max") is None \
            else float(data["max"])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LogHistogram n={self.count} "
                f"buckets={len(self.buckets)}>")


# ---------------------------------------------------------------------
# Per-session rollup state
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SessionMeta:
    """Static facts the aggregator needs about one session."""

    label: str
    start_at: float
    mu: float
    total_packets: int
    segment_bytes: int = 1500


class SessionHealth:
    """O(1) incremental QoE state for one streaming session."""

    __slots__ = ("meta", "tau", "arrivals", "late_packets",
                 "startup_delay_s", "rebuffer_count", "stall_s",
                 "max_lag_s", "path_packets", "cwnd", "send_buffer",
                 "received", "done", "_play_head", "_spacing")

    def __init__(self, meta: SessionMeta, tau: float) -> None:
        self.meta = meta
        self.tau = tau
        self.arrivals = 0
        self.late_packets = 0
        self.startup_delay_s: Optional[float] = None
        self.rebuffer_count = 0
        self.stall_s = 0.0
        self.max_lag_s = 0.0
        self.path_packets: Dict[str, int] = {}
        self.cwnd = LogHistogram()
        self.send_buffer = LogHistogram()
        self.received = 0
        self.done = False
        self._spacing = 1.0 / meta.mu
        # The freeze-resume playout clock (arrival order) starts at
        # start + tau.
        self._play_head = meta.start_at + tau

    def on_arrival(self, time: float, path: str, number: int) -> float:
        """Account one video-packet arrival; returns the stall length
        this arrival ended (0.0 when playback was not starved)."""
        if self.arrivals == 0:
            self.startup_delay_s = max(0.0, time - self.meta.start_at)
        self.arrivals += 1
        self.path_packets[path] = self.path_packets.get(path, 0) + 1
        # Exactly the deadline test of repro.core.metrics on the
        # session clock, so the two late fractions agree bit for bit
        # (a - b > 0 iff a > b for finite floats).
        lag = (time - self.meta.start_at) \
            - (self.tau + number / self.meta.mu)
        if lag > 0.0:
            self.late_packets += 1
            if lag > self.max_lag_s:
                self.max_lag_s = lag
        play_at = self._play_head
        stall = 0.0
        if time > play_at:
            stall = time - play_at
            self.stall_s += stall
            self.rebuffer_count += 1
            play_at = time
        self._play_head = play_at + self._spacing
        return stall

    def late_fraction(self) -> float:
        """Late fraction at the reference tau, missing-as-late (the
        Section-2 convention of :func:`repro.core.metrics.late_fraction`)."""
        total = self.meta.total_packets
        if total <= 0:
            return 0.0
        missing = max(0, total - self.arrivals)
        return (self.late_packets + missing) / total

    def path_shares(self) -> Dict[str, float]:
        if self.arrivals == 0:
            return {}
        return {path: n / self.arrivals
                for path, n in sorted(self.path_packets.items())}

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able per-session rollup row."""
        return {
            "label": self.meta.label,
            "start_at": self.meta.start_at,
            "total_packets": self.meta.total_packets,
            "arrivals": self.arrivals,
            "received": self.received,
            "done": self.done,
            "startup_delay_s": self.startup_delay_s,
            "rebuffers": self.rebuffer_count,
            "stall_s": self.stall_s,
            "late_packets": self.late_packets,
            "late_fraction": self.late_fraction(),
            "max_lag_s": self.max_lag_s,
            "path_packets": dict(sorted(self.path_packets.items())),
            "path_share": self.path_shares(),
            "path_bytes": {
                path: n * self.meta.segment_bytes
                for path, n in sorted(self.path_packets.items())},
            "cwnd": self.cwnd.to_dict(),
            "send_buffer": self.send_buffer.to_dict(),
        }


# ---------------------------------------------------------------------
# The streaming aggregator (a bus sink)
# ---------------------------------------------------------------------

#: Samples one TCP sender's (cwnd, send-buffer occupancy) pair.
FlowSampler = Callable[[], Tuple[float, float]]


class HealthAggregator:
    """Incremental per-session QoE rollups from existing probe topics.

    Subscribes only to *low-rate* topics — per video packet
    (``client.arrival``), per drop, per session end — never the
    per-hop ``link.*`` firehose nor the per-change ``tcp.*`` topics,
    so the instrumented campaign stays within a few percent of the
    bare one (gated at <= 10% in
    ``benchmarks/perf/bench_multisession.py``).  Sender state (cwnd,
    send-buffer occupancy via ``flow_states``) and the bottleneck
    queue occupancy (``queue_len``) are *polled* on the simulated
    clock instead of observed per change, the same trick as
    :class:`repro.obs.sampler.TimeSeriesSampler`; a flow is sampled
    only while its session's video is live.

    On a stall (the freeze-resume playout clock of a session is
    overtaken by an arrival) the aggregator emits the ``health.stall``
    probe — the :class:`repro.obs.recorder.FlightRecorder` subscribes
    to it for its stall trigger.
    """

    def __init__(self, bus: EventBus,
                 sessions: Sequence[SessionMeta],
                 tau: float = 6.0,
                 sim: Optional["Simulator"] = None,
                 queue_len: Optional[Callable[[], int]] = None,
                 queue_sample_s: float = 0.25,
                 sample_until: float = 0.0,
                 flow_states: Sequence[Tuple[str, FlowSampler]] = (),
                 flow_sample_s: float = 1.0) -> None:
        if tau < 0:
            raise ValueError(f"negative tau: {tau}")
        self.tau = tau
        self.sessions: List[SessionHealth] = [
            SessionHealth(meta, tau) for meta in sessions]
        self._by_label: Dict[str, SessionHealth] = {
            s.meta.label: s for s in self.sessions}
        #: labels longest-first so prefix resolution picks the most
        #: specific session for a flow/path name.
        self._labels = sorted(self._by_label, key=len, reverse=True)
        self._name_cache: Dict[str, Optional[SessionHealth]] = {}
        self.queue_occupancy = LogHistogram()
        self.drops = 0
        self.drops_by_link: Dict[str, int] = {}
        self.stall_events = 0
        self._p_stall = bus.probe("health.stall")
        self._dispatch: Dict[
            str, Callable[[str, float, Tuple[Any, ...]], None]] = {
            "client.arrival": self._on_arrival,
            "link.drop": self._on_drop,
            "campaign.session_done": self._on_session_done,
        }
        self.patterns: Tuple[str, ...] = tuple(self._dispatch)
        self._sim = sim
        self._queue_len = queue_len
        self._sample_s = queue_sample_s
        self._sample_until = sample_until
        # (session, live-until, sampler): flows of sessions the
        # aggregator does not know resolve to None and are dropped.
        self._flow_states: List[
            Tuple[SessionHealth, float, FlowSampler]] = []
        for label, sampler in flow_states:
            session = self._by_label.get(label)
            if session is not None:
                meta = session.meta
                end_at = meta.start_at + meta.total_packets / meta.mu
                self._flow_states.append((session, end_at, sampler))
        self._flow_sample_s = flow_sample_s
        if sim is not None and sample_until > sim.now:
            if queue_len is not None and queue_sample_s > 0:
                sim.schedule(queue_sample_s, self._sample_queue)
            if self._flow_states and flow_sample_s > 0:
                sim.schedule(flow_sample_s, self._sample_flows)

    # -- event routing -------------------------------------------------
    def attach(self, bus: EventBus) -> "HealthAggregator":
        """Subscribe each per-topic handler directly.

        Equivalent to ``bus.attach(self)`` (the generic Sink path via
        :meth:`__call__`) minus one function call and one dict lookup
        per event — the difference between the instrumented campaign
        passing and missing its <= 10% overhead gate.
        """
        for topic, handler in self._dispatch.items():
            bus.subscribe(topic, handler)
        return self

    def __call__(self, topic: str, time: float,
                 values: Tuple[Any, ...]) -> None:
        self._dispatch[topic](topic, time, values)

    def _session_for(self, name: str) -> Optional[SessionHealth]:
        """Resolve a flow/path name ("s7.video1", "s7.path1") to its
        session; background flows ("ftp.0") resolve to None.  Cached,
        so steady state is one dict hit per event."""
        try:
            return self._name_cache[name]
        except KeyError:
            pass
        found: Optional[SessionHealth] = None
        for label in self._labels:
            if name.startswith(label):
                rest = name[len(label):]
                if rest.startswith("video") or rest.startswith("path"):
                    found = self._by_label[label]
                    break
        self._name_cache[name] = found
        return found

    # -- handlers (Subscriber signature: topic, time, values) ----------
    def _on_arrival(self, topic: str, time: float,
                    values: Tuple[Any, ...]) -> None:
        path, number = values[0], values[1]
        session = self._session_for(path)
        if session is None:
            return
        stall = session.on_arrival(time, path, number)
        if stall > 0.0:
            self.stall_events += 1
            if self._p_stall.active:
                self._p_stall.emit(time, session.meta.label, stall,
                                   session.rebuffer_count)

    def _on_drop(self, topic: str, time: float,
                 values: Tuple[Any, ...]) -> None:
        link = values[0]
        self.drops += 1
        self.drops_by_link[link] = self.drops_by_link.get(link, 0) + 1

    def _on_session_done(self, topic: str, time: float,
                         values: Tuple[Any, ...]) -> None:
        session = self._by_label.get(values[0])
        if session is not None:
            session.done = True
            session.received = int(values[1])

    def _sample_queue(self) -> None:
        assert self._sim is not None and self._queue_len is not None
        self.queue_occupancy.record(float(self._queue_len()))
        if self._sim.now + self._sample_s <= self._sample_until:
            self._sim.schedule(self._sample_s, self._sample_queue)

    def _sample_flows(self) -> None:
        """Record every live session's sender state (pure reads: the
        sampling tick never perturbs the seeded simulation)."""
        assert self._sim is not None
        now = self._sim.now
        for session, end_at, sampler in self._flow_states:
            if session.meta.start_at <= now < end_at:
                cwnd, buffered = sampler()
                session.cwnd.record(cwnd)
                session.send_buffer.record(buffered)
        if now + self._flow_sample_s <= self._sample_until:
            self._sim.schedule(self._flow_sample_s, self._sample_flows)

    # -- rollup --------------------------------------------------------
    def rollup(self) -> Dict[str, Any]:
        """The JSON-able campaign rollup: per-session rows plus the
        population histograms."""
        rows = [s.as_dict() for s in self.sessions]
        startup = LogHistogram()
        stall = LogHistogram()
        rebuffers = LogHistogram()
        late = LogHistogram()
        cwnd = LogHistogram()
        send_buffer = LogHistogram()
        for s in self.sessions:
            if s.startup_delay_s is not None:
                startup.record(s.startup_delay_s)
            stall.record(s.stall_s)
            rebuffers.record(float(s.rebuffer_count))
            late.record(s.late_fraction())
            cwnd.merge(s.cwnd)
            send_buffer.merge(s.send_buffer)
        return {
            "tau": self.tau,
            "sessions": rows,
            "hists": {
                "startup_delay_s": startup.to_dict(),
                "stall_s": stall.to_dict(),
                "rebuffers": rebuffers.to_dict(),
                "late_fraction": late.to_dict(),
                "cwnd": cwnd.to_dict(),
                "send_buffer": send_buffer.to_dict(),
                "queue_occupancy": self.queue_occupancy.to_dict(),
            },
            "counters": {
                "sessions": len(self.sessions),
                "done": sum(1 for s in self.sessions if s.done),
                "drops": self.drops,
                "stall_events": self.stall_events,
            },
            "drops_by_link": dict(sorted(self.drops_by_link.items())),
        }

