"""One streaming session's endpoint stack, reusable across topologies.

:class:`SessionAssembly` is one session's slice of a
:class:`~repro.core.campaign.MultiSessionCampaign`: the client, the K
video TCP connections, the streamer and the video source — everything
*above* the network.  The campaign composes one assembly with the
paper's Fig. 3/6 topology, or N of them against one shared
:class:`~repro.sim.topology.FanInTopology`.

Naming: with the default empty ``label`` (the one-session paper runs)
flows and paths are named "video1", "path1", ..., the names the
golden traces were captured with.  Fan-in campaigns pass a
per-session prefix such as ``"s7."`` so probe events
(``client.arrival`` paths, ``tcp.*`` flow names) identify their
session.

Construction draws nothing from the simulator RNG, so assemblies can
be built in any order relative to stochastic components without
perturbing seeded runs.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.client import BufferedStreamClient, StreamClient
from repro.core.server_queue import ServerQueue
from repro.core.source import VideoSource
from repro.core.streamers import DmpStreamer, StaticStreamer
from repro.obs.health import SessionMeta
from repro.sim.engine import Simulator
from repro.sim.topology import PathHandles
from repro.tcp.socket import TcpConnection

VIDEO_SEGMENT_BYTES = 1500


class SessionAssembly:
    """Client + connections + streamer + source for one session."""

    def __init__(self, sim: Simulator,
                 path_handles: Sequence[PathHandles],
                 mu: float, duration_s: float,
                 scheme: str = "dmp",
                 segment_bytes: int = VIDEO_SEGMENT_BYTES,
                 send_buffer_pkts: int = 16,
                 start_at: float = 0.0,
                 static_weights: Optional[Sequence[float]] = None,
                 tcp_variant: str = "reno",
                 client_buffer_pkts: Optional[int] = None,
                 client_tau: float = 10.0,
                 label: str = "") -> None:
        if scheme not in ("dmp", "static", "single"):
            raise ValueError(f"unknown scheme: {scheme}")
        if scheme == "single" and len(path_handles) != 1:
            raise ValueError("single-path scheme needs exactly one path")
        if not path_handles:
            raise ValueError("need at least one path")
        self.sim = sim
        self.mu = mu
        self.duration_s = duration_s
        self.scheme = scheme
        self.start_at = start_at
        self.label = label
        self.segment_bytes = segment_bytes

        # A finite client playout buffer (the [16] scenario) fixes the
        # startup delay up front and back-pressures the senders via
        # TCP flow control; the default is the paper's unlimited one.
        self.client: StreamClient
        window_provider: Optional[Callable[[], int]]
        if client_buffer_pkts is not None:
            buffered = BufferedStreamClient(
                sim, mu=mu, tau=client_tau,
                capacity=client_buffer_pkts, stream_start=start_at)
            self.client = buffered
            window_provider = buffered.window
        else:
            self.client = StreamClient(sim=sim)
            window_provider = None

        self.connections: List[TcpConnection] = []
        for k, handles in enumerate(path_handles, start=1):
            conn = TcpConnection(
                sim, handles.server_if, handles.client_if,
                segment_bytes=segment_bytes,
                send_buffer_pkts=send_buffer_pkts,
                on_deliver=self.client.deliver_callback(
                    f"{label}path{k}"),
                window_provider=window_provider,
                name=f"{label}video{k}", variant=tcp_variant)
            self.connections.append(conn)

        self.streamer: Union[StaticStreamer, DmpStreamer]
        self.queue: Optional[ServerQueue]
        if scheme == "static":
            self.streamer = StaticStreamer(
                sim, self.connections, weights=static_weights)
            self.queue = None
        else:
            self.queue = ServerQueue(sim=sim)
            self.streamer = DmpStreamer(
                sim, self.connections, queue=self.queue)
        # The static scheme routes straight from generation events and
        # keeps per-path queues, so it takes no shared server queue.
        self.source = VideoSource(
            sim, self.queue, mu=mu, duration_s=duration_s,
            start_at=start_at)
        self.streamer.attach_source(self.source)

    # ------------------------------------------------------------------
    @property
    def end_at(self) -> float:
        """Simulated time the video generation ends."""
        return self.start_at + self.duration_s

    @property
    def final(self) -> bool:
        """True once the client holds the whole video and every video
        sender's buffer is empty.

        From then on no event can change what this session records:
        each packet was delivered once, in order, and acknowledged, so
        no arrival, fetch or new ACK is left to count.
        """
        return (self.client.received == self.source.total_packets
                and not any(conn.sender.buffered
                            for conn in self.connections))

    def watch_final(self, on_final: Callable[[], None]) -> None:
        """Call ``on_final()`` once, at the first instant the session
        is :attr:`final`.

        The receiver delivers a segment before it acknowledges it, so
        that instant is a new ACK emptying a video sender's buffer:
        the check rides on the streamer's send-space callback from
        this call on, and only an ACK that empties a buffer runs it.
        """
        if self.final:
            on_final()
            return
        streamer_space = self.streamer.on_send_space

        def on_send_space(connection: TcpConnection) -> None:
            streamer_space(connection)
            if not connection.sender.buffered and self.final:
                for conn in self.connections:
                    conn._user_on_send_space = streamer_space
                on_final()

        for conn in self.connections:
            conn._user_on_send_space = on_send_space

    def arrivals_relative(self) -> List[Tuple[int, float]]:
        """Client arrivals shifted to this session's video clock."""
        start = self.start_at
        return [(number, time - start)
                for number, time in self.client.arrivals]

    def flow_stats(self) -> List[Dict[str, Any]]:
        return [conn.stats() for conn in self.connections]

    def health_meta(self) -> SessionMeta:
        """This session's identity for the campaign health layer."""
        return SessionMeta(
            label=self.label, start_at=self.start_at, mu=self.mu,
            total_packets=self.source.total_packets,
            segment_bytes=self.segment_bytes)
