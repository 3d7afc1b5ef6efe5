"""End-to-end streaming sessions over the packet simulator.

:class:`StreamingSession` assembles everything the paper's Section 5
validation needs: a Fig.-3 (independent paths) or Fig.-6 (shared
bottleneck) topology, FTP/HTTP background load per Table 1, the K video
TCP connections, a streamer (DMP / static / single-path) and the client.
Running it yields a :class:`SessionResult` with the client arrival
record and tcpdump-style per-flow estimates of (p, R, T_O).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.assembly import SessionAssembly
from repro.core.client import BufferedStreamClient
from repro.core.metrics import (
    GlitchStats,
    PlaybackMetrics,
    glitch_statistics,
    playback_metrics,
)
from repro.obs.bus import EventBus
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.sinks import CountersSink, JsonlSink, TraceSink
from repro.sim.engine import Simulator
from repro.sim.queueing import QUEUE_DISCIPLINES
from repro.sim.topology import (
    BottleneckSpec,
    IndependentPathsTopology,
    SharedBottleneckTopology,
)
from repro.sim.trace import PacketTrace
from repro.traffic.ftp import FtpFlow
from repro.traffic.http import HttpFlow

VIDEO_SEGMENT_BYTES = 1500


@dataclass
class PathConfig:
    """One path: its bottleneck link plus the background load on it."""

    bottleneck: BottleneckSpec
    n_ftp: int = 0
    n_http: int = 0


@dataclass
class SessionResult:
    """Everything measured from one streaming run."""

    mu: float
    total_packets: int
    arrivals: List[tuple]
    flow_stats: List[dict]
    path_shares: List[float]
    bottleneck_drop_fractions: List[float]
    duration_s: float
    scheme: str

    def metrics(self, tau: float) -> PlaybackMetrics:
        """Playback metrics at startup delay ``tau`` (seconds)."""
        return playback_metrics(self.arrivals, self.mu, tau,
                                total_packets=self.total_packets)

    def late_fraction(self, tau: float) -> float:
        return self.metrics(tau).late_fraction

    def glitches(self, tau: float) -> GlitchStats:
        """Glitch-run statistics at startup delay ``tau``."""
        return glitch_statistics(self.arrivals, self.mu, tau,
                                 total_packets=self.total_packets)


class StreamingSession:
    """Build and run one multipath live-streaming experiment."""

    def __init__(self, mu: float, duration_s: float,
                 paths: Sequence[PathConfig],
                 scheme: str = "dmp",
                 shared_bottleneck: bool = False,
                 seed: Optional[int] = None,
                 segment_bytes: int = VIDEO_SEGMENT_BYTES,
                 send_buffer_pkts: int = 16,
                 warmup_s: float = 20.0,
                 static_weights: Optional[Sequence[float]] = None,
                 tcp_variant: str = "reno",
                 client_buffer_pkts: Optional[int] = None,
                 client_tau: float = 10.0,
                 queue_discipline: str = "droptail"):
        if scheme not in ("dmp", "static", "single"):
            raise ValueError(f"unknown scheme: {scheme}")
        if scheme == "single" and len(paths) != 1:
            raise ValueError("single-path scheme needs exactly one path")
        if queue_discipline not in QUEUE_DISCIPLINES:
            raise ValueError(
                f"unknown queue discipline: {queue_discipline} "
                f"(choose from {list(QUEUE_DISCIPLINES)})")
        self.mu = mu
        self.duration_s = duration_s
        self.scheme = scheme
        self.warmup_s = warmup_s
        self.queue_discipline = queue_discipline
        self.sim = Simulator(seed=seed)

        # --- topology -------------------------------------------------
        if shared_bottleneck:
            if len({id(p.bottleneck) for p in paths}) > 1 and \
                    len({(p.bottleneck.bandwidth_bps, p.bottleneck.delay_s,
                          p.bottleneck.buffer_pkts) for p in paths}) > 1:
                raise ValueError(
                    "shared bottleneck requires one common spec")
            topo = SharedBottleneckTopology(
                self.sim, paths[0].bottleneck, n_paths=len(paths),
                queue_discipline=queue_discipline)
            bg_paths = [paths[0]]
            self._bottlenecks = [topo.bottleneck_fwd]
            self._bottleneck_links = (topo.bottleneck_fwd,
                                      topo.bottleneck_rev)
        else:
            topo = IndependentPathsTopology(
                self.sim, [p.bottleneck for p in paths],
                queue_discipline=queue_discipline)
            bg_paths = list(paths)
            self._bottlenecks = [h.bottleneck_fwd for h in topo.paths]
            self._bottleneck_links = tuple(
                link for h in topo.paths
                for link in (h.bottleneck_fwd, h.bottleneck_rev))
        self.topology = topo

        # --- background load ------------------------------------------
        self.background: List[object] = []
        for cfg, handles in zip(bg_paths, topo.paths):
            for i in range(cfg.n_ftp):
                start = self.sim.rng.uniform(0.0, warmup_s / 2.0)
                self.background.append(FtpFlow(
                    self.sim, handles.bg_source_host,
                    handles.bg_sink_host, segment_bytes=segment_bytes,
                    start_at=start, name=f"ftp{handles.index}.{i}"))
            for i in range(cfg.n_http):
                start = self.sim.rng.uniform(0.0, warmup_s / 2.0)
                self.background.append(HttpFlow(
                    self.sim, handles.bg_source_host,
                    handles.bg_sink_host, segment_bytes=segment_bytes,
                    start_at=start, name=f"http{handles.index}.{i}"))

        # --- endpoints (client / connections / streamer / source) -----
        # Delegated to the reusable per-session assembly; the default
        # empty label keeps flow and path names ("video1", "path1")
        # identical to the pre-refactor inline construction, so golden
        # traces are unaffected.
        self.assembly = SessionAssembly(
            self.sim, topo.paths[:len(paths)], mu=mu,
            duration_s=duration_s, scheme=scheme,
            segment_bytes=segment_bytes,
            send_buffer_pkts=send_buffer_pkts, start_at=warmup_s,
            static_weights=static_weights, tcp_variant=tcp_variant,
            client_buffer_pkts=client_buffer_pkts,
            client_tau=client_tau)
        self.client = self.assembly.client
        self.connections = self.assembly.connections
        self.streamer = self.assembly.streamer
        self.queue = self.assembly.queue
        self.source = self.assembly.source

    # --- observability -------------------------------------------------
    @property
    def bus(self) -> EventBus:
        """The simulator's instrumentation bus."""
        return self.sim.bus

    def attach_packet_trace(
            self, trace: Optional[PacketTrace] = None) -> PacketTrace:
        """Record bottleneck-link packet events into a tcpdump-style
        :class:`PacketTrace`, exactly as the pre-bus code did (access
        links are excluded so flow estimation sees the same records).
        """
        sink = TraceSink(
            trace=trace,
            links=[link.name for link in self._bottleneck_links])
        self.bus.attach(sink)
        return sink.trace

    def attach_counters(self) -> CountersSink:
        """Count every probe emission, keyed by topic."""
        sink = CountersSink()
        self.bus.attach(sink)
        return sink

    def attach_timeseries(self,
                          interval_s: float = 1.0) -> TimeSeriesSampler:
        """Sample the curves worth plotting (cwnd per video flow,
        server-queue depth, client buffer, bottleneck occupancy).
        """
        sampler = TimeSeriesSampler(self.sim, interval_s=interval_s)
        for conn in self.connections:
            sampler.add_series(f"cwnd.{conn.name}",
                               lambda s=conn.sender: s.cwnd)
        if self.queue is not None:
            sampler.add_series("server_queue.depth",
                               lambda q=self.queue: len(q))
        if isinstance(self.client, BufferedStreamClient):
            sampler.add_series("client.buffer",
                               self.client.early_packets)
        sampler.add_series("client.received",
                           lambda c=self.client: c.received)
        for link in self._bottlenecks:
            sampler.add_series(f"queue.{link.name}", link.backlog)
        return sampler

    def attach_jsonl(self, target,
                     patterns: Sequence[str] = ("*",)) -> JsonlSink:
        """Stream every matching probe event to ``target`` as JSONL."""
        sink = JsonlSink(target, patterns=patterns)
        self.bus.attach(sink)
        return sink

    # ------------------------------------------------------------------
    def run(self, drain_s: float = 60.0) -> SessionResult:
        """Run the experiment and collect results.

        ``drain_s`` extends the run beyond the video's end so in-flight
        packets can still arrive (they may or may not be late).
        """
        video_start = self.warmup_s
        horizon = video_start + self.duration_s + drain_s
        self.sim.run(until=horizon)

        arrivals = [(number, time - video_start)
                    for number, time in self.client.arrivals]
        return SessionResult(
            mu=self.mu,
            total_packets=self.source.total_packets,
            arrivals=arrivals,
            flow_stats=[conn.stats() for conn in self.connections],
            path_shares=list(self.streamer.path_shares),
            bottleneck_drop_fractions=[
                link.queue.drop_fraction for link in self._bottlenecks],
            duration_s=self.duration_s,
            scheme=self.scheme)
