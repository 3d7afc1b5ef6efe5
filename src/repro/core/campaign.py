"""Packet-level runs: one or N concurrent DMP sessions over TCP.

:class:`MultiSessionCampaign` is the one packet-run builder.  One
:class:`~repro.sim.engine.Simulator` hosts N
:class:`~repro.core.assembly.SessionAssembly` stacks plus FTP/HTTP
background load.  The network comes in one of two ways:

* ``bottleneck=`` — a shared :class:`~repro.sim.topology.FanInTopology`
  bottleneck, so the sessions compete with each other the way hundreds
  of viewers behind one provider link would;
* ``paths=`` (+ ``shared_bottleneck=``) — one session on the paper's
  Fig. 3 (:class:`~repro.sim.topology.IndependentPathsTopology`) or
  Fig. 6 (:class:`~repro.sim.topology.SharedBottleneckTopology`)
  topology, each :class:`~repro.sim.topology.PathConfig` carrying its
  own background load: the Section 5 validation runs.  A single
  session is just the N = 1 member of the population.

Session start times come from one of two seeded processes:

* *staggered* (``churn_rate = 0``): session ``i`` starts at
  ``warmup_s + i * stagger_s`` — deterministic, used by benchmarks;
* *churn* (``churn_rate > 0``): session inter-arrival times are
  exponential with rate ``churn_rate`` per second, drawn from
  ``sim.rng`` so a seeded campaign replays bit-identically.

Results aggregate per-session :class:`SessionSummary` records into
population metrics — the late-fraction distribution across sessions
and its p50/p95/p99 — rather than a single flow-level number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.assembly import VIDEO_SEGMENT_BYTES, SessionAssembly
from repro.core.client import BufferedStreamClient
from repro.core.metrics import (GlitchStats, PlaybackMetrics,
                                glitch_statistics, late_fraction,
                                playback_metrics, quantile)
from repro.obs.bus import EventBus
from repro.obs.health import HealthAggregator
from repro.obs.recorder import FlightRecorder, Trigger
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.sinks import CountersSink, JsonlSink, TraceSink
from repro.sim.engine import Simulator
from repro.sim.pool import PacketPool
from repro.sim.queueing import QUEUE_DISCIPLINES
from repro.sim.topology import (BottleneckSpec, FanInTopology,
                                IndependentPathsTopology, PathConfig,
                                SharedBottleneckTopology)
from repro.sim.trace import PacketTrace
from repro.traffic.ftp import FtpFlow
from repro.traffic.http import HttpFlow

#: Population percentiles reported by :meth:`CampaignResult.population`.
POPULATION_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

@dataclass
class SessionSummary:
    """Everything measured from one session of a run."""

    index: int
    label: str
    start_at: float
    mu: float
    total_packets: int
    received: int
    arrivals: List[Tuple[int, float]]
    flow_stats: List[Dict[str, Any]]
    path_shares: List[float]

    def metrics(self, tau: float) -> PlaybackMetrics:
        """Playback metrics at startup delay ``tau`` (seconds)."""
        return playback_metrics(self.arrivals, self.mu, tau,
                                total_packets=self.total_packets)

    def late_fraction(self, tau: float) -> float:
        """This session's late fraction at startup delay ``tau``."""
        return late_fraction(self.arrivals, self.mu, tau,
                             total_packets=self.total_packets)

    def glitches(self, tau: float) -> GlitchStats:
        """Glitch-run statistics at startup delay ``tau``."""
        return glitch_statistics(self.arrivals, self.mu, tau,
                                 total_packets=self.total_packets)


@dataclass
class CampaignResult:
    """Population-level view of one run."""

    n_sessions: int
    mu: float
    duration_s: float
    scheme: str
    queue_discipline: str
    sessions: List[SessionSummary]
    #: Dropped over offered packets, summed over every forward
    #: bottleneck.
    bottleneck_drop_fraction: float
    events_processed: int

    def late_fractions(self, tau: float) -> List[float]:
        """Per-session late fractions at ``tau``, in session order."""
        return [s.late_fraction(tau) for s in self.sessions]

    def population(self, tau: float) -> Dict[str, float]:
        """Distribution summary of per-session late fractions; the
        percentiles are the exact :func:`~repro.core.metrics.quantile`.
        """
        fractions = self.late_fractions(tau)
        summary = {
            "mean": sum(fractions) / len(fractions),
            "min": min(fractions),
            "max": max(fractions),
        }
        for q in POPULATION_QUANTILES:
            summary[f"p{int(q * 100)}"] = quantile(fractions, q)
        return summary


Topology = Union[FanInTopology, IndependentPathsTopology,
                 SharedBottleneckTopology]


class MultiSessionCampaign:
    """Build and run N concurrent streaming sessions on one topology.

    Pass either ``bottleneck`` (N sessions, ``paths_per_session``
    paths each, all through one fan-in bottleneck loaded by ``n_ftp``
    + ``n_http`` background flows) or ``paths`` (one session on the
    Fig. 3 topology, or on Fig. 6 with ``shared_bottleneck``; each
    :class:`~repro.sim.topology.PathConfig` carries its background
    load).  Every run recycles packets through a
    :class:`~repro.sim.pool.PacketPool`.
    """

    def __init__(self, mu: float, duration_s: float,
                 n_sessions: int = 1,
                 bottleneck: Optional[BottleneckSpec] = None,
                 paths_per_session: int = 2,
                 scheme: str = "dmp",
                 queue_discipline: str = "droptail",
                 seed: Optional[int] = None,
                 churn_rate: float = 0.0,
                 stagger_s: float = 1.0,
                 warmup_s: float = 20.0,
                 n_ftp: int = 0, n_http: int = 0,
                 segment_bytes: int = VIDEO_SEGMENT_BYTES,
                 send_buffer_pkts: int = 16,
                 tcp_variant: str = "reno",
                 client_buffer_pkts: Optional[int] = None,
                 client_tau: float = 10.0,
                 paths: Optional[Sequence[PathConfig]] = None,
                 shared_bottleneck: bool = False,
                 static_weights: Optional[Sequence[float]] = None) \
            -> None:
        if n_sessions < 1:
            raise ValueError("need at least one session")
        if churn_rate < 0:
            raise ValueError(f"negative churn rate: {churn_rate}")
        if queue_discipline not in QUEUE_DISCIPLINES:
            raise ValueError(
                f"unknown queue discipline: {queue_discipline} "
                f"(choose from {list(QUEUE_DISCIPLINES)})")
        if (bottleneck is None) == (paths is None):
            raise ValueError("pass exactly one of bottleneck= (fan-in) "
                             "and paths= (one session, Fig. 3/6)")
        self.mu = mu
        self.duration_s = duration_s
        self.n_sessions = n_sessions
        self.scheme = scheme
        self.queue_discipline = queue_discipline
        self.churn_rate = churn_rate
        self.warmup_s = warmup_s
        self.sim = Simulator(seed=seed)
        # Every bundled sink copies packet fields at emission time, so
        # recycling never rewrites what a sink recorded.
        self.sim.pool = PacketPool(prealloc=64 * n_sessions)

        # --- topology and the background load on each bottleneck -----
        self.topology: Topology
        loads: List[PathConfig]
        if paths is None:
            assert bottleneck is not None
            if shared_bottleneck:
                raise ValueError("shared_bottleneck needs paths=")
            self.topology = FanInTopology(
                self.sim, bottleneck, n_sessions=n_sessions,
                paths_per_session=paths_per_session,
                queue_discipline=queue_discipline)
            loads = [PathConfig(bottleneck, n_ftp, n_http)]
            labels = [f"s{i}." for i in range(n_sessions)]
        else:
            if n_sessions != 1 or n_ftp or n_http:
                raise ValueError(
                    "paths= builds one session whose PathConfigs carry "
                    "the background load; use bottleneck= for n_sessions "
                    "> 1 or n_ftp/n_http")
            if not paths:
                raise ValueError("need at least one path")
            if shared_bottleneck:
                if any(p.bottleneck != paths[0].bottleneck
                       for p in paths):
                    raise ValueError(
                        "shared bottleneck requires one common spec")
                self.topology = SharedBottleneckTopology(
                    self.sim, paths[0].bottleneck, n_paths=len(paths),
                    queue_discipline=queue_discipline)
                loads = [paths[0]]
            else:
                self.topology = IndependentPathsTopology(
                    self.sim, [p.bottleneck for p in paths],
                    queue_discipline=queue_discipline)
                loads = list(paths)
            # The empty label keeps the paper-run names ("video1",
            # "path1") its golden traces were captured with.
            labels = [""]
        self._forward = [fwd for fwd, _ in self.topology.bottlenecks]

        # --- session start times (seeded; before any other RNG use) --
        self.start_times: List[float] = []
        if churn_rate > 0.0:
            at = warmup_s
            for _ in range(n_sessions):
                at += self.sim.rng.expovariate(churn_rate)
                self.start_times.append(at)
        else:
            self.start_times = [warmup_s + i * stagger_s
                                for i in range(n_sessions)]

        self.background: List[object] = []
        for cfg, hosts in zip(loads, self.topology.background):
            for i in range(cfg.n_ftp):
                start = self.sim.rng.uniform(0.0, warmup_s / 2.0)
                self.background.append(FtpFlow(
                    self.sim, hosts.source, hosts.sink,
                    segment_bytes=segment_bytes, start_at=start,
                    name=f"ftp{hosts.tag}.{i}"))
            for i in range(cfg.n_http):
                start = self.sim.rng.uniform(0.0, warmup_s / 2.0)
                self.background.append(HttpFlow(
                    self.sim, hosts.source, hosts.sink,
                    segment_bytes=segment_bytes, start_at=start,
                    name=f"http{hosts.tag}.{i}"))

        # --- per-session endpoint stacks -----------------------------
        self._p_session_done = self.sim.bus.probe("campaign.session_done")
        self._not_final = n_sessions
        self.assemblies: List[SessionAssembly] = []
        for i, handles in enumerate(self.topology.sessions):
            assembly = SessionAssembly(
                self.sim, handles, mu=mu, duration_s=duration_s,
                scheme=scheme, segment_bytes=segment_bytes,
                send_buffer_pkts=send_buffer_pkts,
                start_at=self.start_times[i],
                static_weights=static_weights,
                tcp_variant=tcp_variant,
                client_buffer_pkts=client_buffer_pkts,
                client_tau=client_tau, label=labels[i])
            self.assemblies.append(assembly)
            self.sim.at(assembly.end_at, self._on_session_done, i)

    # ------------------------------------------------------------------
    @property
    def bus(self) -> EventBus:
        """The shared simulator's instrumentation bus."""
        return self.sim.bus

    def attach_packet_trace(
            self, trace: Optional[PacketTrace] = None) -> PacketTrace:
        """Record bottleneck-link packet events into a tcpdump-style
        :class:`PacketTrace` (access links are excluded, so flow
        estimation sees only the bottleneck records)."""
        sink = TraceSink(
            trace=trace,
            links=[link.name for pair in self.topology.bottlenecks
                   for link in pair])
        self.bus.attach(sink)
        return sink.trace

    def attach_timeseries(self,
                          interval_s: float = 1.0) -> TimeSeriesSampler:
        """Sample the curves worth plotting: per session the cwnd of
        each video flow, server-queue depth, client buffer and
        deliveries (series names carry the session label), then each
        forward bottleneck's occupancy."""
        sampler = TimeSeriesSampler(self.sim, interval_s=interval_s)
        for a in self.assemblies:
            for conn in a.connections:
                sampler.add_series(f"cwnd.{conn.name}",
                                   lambda s=conn.sender: s.cwnd)
            if a.queue is not None:
                sampler.add_series(f"{a.label}server_queue.depth",
                                   lambda q=a.queue: len(q))
            if isinstance(a.client, BufferedStreamClient):
                sampler.add_series(f"{a.label}client.buffer",
                                   a.client.early_packets)
            sampler.add_series(f"{a.label}client.received",
                               lambda c=a.client: c.received)
        for link in self._forward:
            sampler.add_series(f"queue.{link.name}", link.backlog)
        return sampler

    def attach_counters(self) -> CountersSink:
        """Count every probe emission, keyed by topic."""
        sink = CountersSink()
        self.bus.attach(sink)
        return sink

    def attach_jsonl(self, target: Any,
                     patterns: Sequence[str] = ("*",)) -> JsonlSink:
        """Stream every matching probe event to ``target`` as JSONL."""
        sink = JsonlSink(target, patterns=patterns)
        self.bus.attach(sink)
        return sink

    def attach_recorder(self, triggers: Sequence[Trigger] = (),
                        ring_size: int = 256) -> FlightRecorder:
        """Arm a per-session flight recorder (see
        :mod:`repro.obs.recorder`).

        Call this *before* :meth:`attach_health` — subscribers run in
        subscribe order, so the recorder's ring then already holds the
        arrival that caused a stall when the aggregator's nested
        ``health.stall`` emission fires the stall trigger.
        """
        recorder = FlightRecorder(
            [a.label for a in self.assemblies],
            triggers=triggers, ring_size=ring_size)
        return recorder.attach(self.bus)

    def attach_health(self, tau: float = 6.0,
                      queue_sample_s: float = 0.25,
                      flow_sample_s: float = 1.0) -> HealthAggregator:
        """Attach streaming per-session QoE rollups (see
        :mod:`repro.obs.health`).

        The packets queued at the forward bottleneck(s) (every
        ``queue_sample_s``) and each live session's sender state (cwnd
        and send-buffer occupancy, every ``flow_sample_s``) are polled
        on the simulated clock until the last session's video ends;
        ``tau`` is the reference startup delay the rollup's late
        fraction and stall clock use.
        """
        def sampler(sender: Any) -> Callable[[], Tuple[float, float]]:
            return lambda: (sender.cwnd, float(sender.buffered))

        forward = self._forward
        aggregator = HealthAggregator(
            self.bus, [a.health_meta() for a in self.assemblies],
            tau=tau, sim=self.sim,
            queue_len=lambda: sum(link.backlog() for link in forward),
            queue_sample_s=queue_sample_s,
            sample_until=max(a.end_at for a in self.assemblies),
            flow_states=[(a.label, sampler(conn.sender))
                         for a in self.assemblies
                         for conn in a.connections],
            flow_sample_s=flow_sample_s)
        return aggregator.attach(self.bus)

    def _on_session_done(self, index: int) -> None:
        """Fires at the instant session ``index``'s video ends."""
        assembly = self.assemblies[index]
        if self._p_session_done.active:
            self._p_session_done.emit(
                self.sim.now, assembly.label,
                assembly.client.received,
                assembly.source.total_packets)
        assembly.watch_final(self._on_session_final)

    def _on_session_final(self) -> None:
        self._not_final -= 1
        if not self._not_final:
            self.sim.stop()

    # ------------------------------------------------------------------
    def run(self, drain_s: float = 60.0) -> CampaignResult:
        """Run until every session is final, for at most ``drain_s``
        seconds after the last video ends.

        ``drain_s`` is an upper bound: the run ends at the first
        instant every client holds the whole video and every video
        sender's buffer is empty (see
        :attr:`~repro.core.assembly.SessionAssembly.final`), since no
        later event can change a session's record.  Only the
        run-level ``bottleneck_drop_fraction`` and ``events_processed``
        see the background traffic that would have followed.  A
        session that never completes runs the whole drain, letting
        in-flight packets still arrive (they may or may not be late).
        """
        horizon = max(a.end_at for a in self.assemblies) + drain_s
        self.sim.run(until=horizon)

        summaries = [
            SessionSummary(
                index=i, label=a.label, start_at=a.start_at,
                mu=a.mu, total_packets=a.source.total_packets,
                received=a.client.received,
                arrivals=a.arrivals_relative(),
                flow_stats=a.flow_stats(),
                path_shares=list(a.streamer.path_shares))
            for i, a in enumerate(self.assemblies)]
        queues = [link.queue for link in self._forward]
        drops = sum(q.drops for q in queues)
        offered = sum(q.enqueued for q in queues) + drops
        return CampaignResult(
            n_sessions=self.n_sessions,
            mu=self.mu,
            duration_s=self.duration_s,
            scheme=self.scheme,
            queue_discipline=self.queue_discipline,
            sessions=summaries,
            bottleneck_drop_fraction=drops / offered if offered else 0.0,
            events_processed=self.sim.events_processed)
