"""Topology builders for the paper's validation settings and campaigns.

Two topologies are used in Section 5:

* Fig. 3 — *independent paths*: the (multihomed) server reaches the
  (multihomed) client over K disjoint paths, each with its own
  bottleneck link ``r_k1 -> r_k2`` shared with background flows.
* Fig. 6 — *correlated paths*: both video TCP flows traverse the same
  single bottleneck ``r1 -> r2``.

A third, :class:`FanInTopology`, fans N sessions into one bottleneck
for population campaigns.

Multihoming is modelled by giving the client one node (interface) per
path; agents may bind to several interfaces at once.  Access links are
100 Mbps with 10 ms propagation delay as in the paper.

Every builder exposes the same three handles, which is all
:class:`~repro.core.campaign.MultiSessionCampaign` needs to run on any
of them:

* ``sessions`` — per session, the list of its paths' :class:`PathHandles`;
* ``bottlenecks`` — one ``(forward, reverse)`` link pair per bottleneck;
* ``background`` — one :class:`BackgroundHosts` per bottleneck whose
  background load is configured separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.sim.engine import Simulator
from repro.sim.link import Link, duplex_link
from repro.sim.node import Node
from repro.sim.queueing import make_queue

ACCESS_BANDWIDTH_BPS = 100e6
ACCESS_DELAY_S = 0.010


def _bottleneck_pair(sim: Simulator, r_in: Node, r_out: Node,
                     spec: "BottleneckSpec",
                     discipline: str) -> Tuple[Link, Link]:
    """Build the fwd/rev bottleneck links under one queue discipline.

    The queue factory is fed the simulator's seeded RNG and clock so
    AQM drop decisions stay a pure function of the experiment seed.

    Multi-session audit: nothing here is sized to a flow count — the
    queues bucket by per-packet flow keys (FQ-PIE hashes
    ``(src, sport, dst, dport)``), the RNG/clock closures are
    per-simulator, and link/queue names derive from the router names,
    which are unique per builder.  Any number of sessions may share
    one pair.
    """
    links = []
    for src, dst in ((r_in, r_out), (r_out, r_in)):
        name = f"{src.name}->{dst.name}"
        queue = make_queue(discipline, spec.buffer_pkts,
                           rng=sim.rng, clock=lambda: sim.now,
                           bus=sim.bus, name=name)
        links.append(Link(sim, src, dst, spec.bandwidth_bps,
                          spec.delay_s, spec.buffer_pkts, queue=queue))
    return links[0], links[1]


@dataclass
class BottleneckSpec:
    """Physical parameters of one bottleneck link (one row of Table 1)."""

    bandwidth_bps: float
    delay_s: float
    buffer_pkts: int


@dataclass
class PathConfig:
    """One path: its bottleneck link plus the background load on it."""

    bottleneck: BottleneckSpec
    n_ftp: int = 0
    n_http: int = 0


@dataclass
class BackgroundHosts:
    """The host pair whose FTP/HTTP flows load one bottleneck.

    ``tag`` goes into the background flow names (``"ftp1.0"``;
    ``"ftp.0"`` for the empty tag).
    """

    tag: str
    source: Node
    sink: Node


@dataclass
class PathHandles:
    """Attachment points for one server->client path."""

    index: int
    server_if: Node
    client_if: Node
    ingress_router: Node
    egress_router: Node
    bottleneck_fwd: Link
    bottleneck_rev: Link
    bg_source_host: Node
    bg_sink_host: Node


class IndependentPathsTopology:
    """The Fig. 3 topology with K independent bottleneck paths."""

    def __init__(self, sim: Simulator,
                 specs: List[BottleneckSpec],
                 queue_discipline: str = "droptail") -> None:
        if not specs:
            raise ValueError("need at least one path spec")
        self.sim = sim
        self.queue_discipline = queue_discipline
        self.server = Node(sim, "server")
        self.paths: List[PathHandles] = []
        for k, spec in enumerate(specs, start=1):
            self.paths.append(self._build_path(k, spec))
        self.sessions = [self.paths]
        self.bottlenecks = [(h.bottleneck_fwd, h.bottleneck_rev)
                            for h in self.paths]
        self.background = [
            BackgroundHosts(str(h.index), h.bg_source_host,
                            h.bg_sink_host) for h in self.paths]

    def _build_path(self, k: int, spec: BottleneckSpec) -> PathHandles:
        sim = self.sim
        r_in = Node(sim, f"r{k}1")
        r_out = Node(sim, f"r{k}2")
        client_if = Node(sim, f"client{k}")
        bg_src = Node(sim, f"bgsrc{k}")
        bg_sink = Node(sim, f"bgsink{k}")

        # Access and egress links are fat (never the bottleneck).
        server_up, _ = duplex_link(
            sim, self.server, r_in, ACCESS_BANDWIDTH_BPS,
            ACCESS_DELAY_S, queue_limit_pkts=1000)
        _, client_up = duplex_link(
            sim, r_out, client_if, ACCESS_BANDWIDTH_BPS,
            ACCESS_DELAY_S, queue_limit_pkts=1000)
        bg_up, _ = duplex_link(
            sim, bg_src, r_in, ACCESS_BANDWIDTH_BPS,
            ACCESS_DELAY_S, queue_limit_pkts=1000)
        _, bg_sink_up = duplex_link(
            sim, r_out, bg_sink, ACCESS_BANDWIDTH_BPS,
            ACCESS_DELAY_S, queue_limit_pkts=1000)

        # The bottleneck itself (observable via the link.* probes).
        fwd, rev = _bottleneck_pair(sim, r_in, r_out, spec,
                                    self.queue_discipline)
        r_in.add_route(r_out.name, fwd)
        r_out.add_route(r_in.name, rev)

        # Transit routes.
        for dst in (client_if, bg_sink):
            self.server.add_route(dst.name, server_up)
            bg_src.add_route(dst.name, bg_up)
            r_in.add_route(dst.name, fwd)
        for dst_name in (self.server.name, bg_src.name):
            r_out.add_route(dst_name, rev)
            client_if.add_route(dst_name, client_up)
            bg_sink.add_route(dst_name, bg_sink_up)

        return PathHandles(
            index=k, server_if=self.server, client_if=client_if,
            ingress_router=r_in, egress_router=r_out,
            bottleneck_fwd=fwd, bottleneck_rev=rev,
            bg_source_host=bg_src, bg_sink_host=bg_sink)


class SharedBottleneckTopology:
    """The Fig. 6 topology: every flow crosses the same bottleneck."""

    def __init__(self, sim: Simulator, spec: BottleneckSpec,
                 n_paths: int = 2,
                 queue_discipline: str = "droptail") -> None:
        self.sim = sim
        self.queue_discipline = queue_discipline
        self.server = Node(sim, "server")
        self.client = Node(sim, "client")
        r1 = Node(sim, "r1")
        r2 = Node(sim, "r2")
        bg_src = Node(sim, "bgsrc")
        bg_sink = Node(sim, "bgsink")

        server_up, _ = duplex_link(
            sim, self.server, r1, ACCESS_BANDWIDTH_BPS,
            ACCESS_DELAY_S, queue_limit_pkts=1000)
        _, client_up = duplex_link(
            sim, r2, self.client, ACCESS_BANDWIDTH_BPS,
            ACCESS_DELAY_S, queue_limit_pkts=1000)
        bg_up, _ = duplex_link(
            sim, bg_src, r1, ACCESS_BANDWIDTH_BPS,
            ACCESS_DELAY_S, queue_limit_pkts=1000)
        _, bg_sink_up = duplex_link(
            sim, r2, bg_sink, ACCESS_BANDWIDTH_BPS,
            ACCESS_DELAY_S, queue_limit_pkts=1000)

        fwd, rev = _bottleneck_pair(sim, r1, r2, spec,
                                    queue_discipline)
        r1.add_route(r2.name, fwd)
        r2.add_route(r1.name, rev)

        for dst in (self.client, bg_sink):
            self.server.add_route(dst.name, server_up)
            bg_src.add_route(dst.name, bg_up)
            r1.add_route(dst.name, fwd)
        for dst_name in (self.server.name, bg_src.name):
            r2.add_route(dst_name, rev)
            self.client.add_route(dst_name, client_up)
            bg_sink.add_route(dst_name, bg_sink_up)

        self.bottleneck_fwd = fwd
        self.bottleneck_rev = rev
        self.bg_source_host = bg_src
        self.bg_sink_host = bg_sink
        # Both "paths" share all handles in the correlated topology.
        shared = PathHandles(
            index=1, server_if=self.server, client_if=self.client,
            ingress_router=r1, egress_router=r2, bottleneck_fwd=fwd,
            bottleneck_rev=rev, bg_source_host=bg_src,
            bg_sink_host=bg_sink)
        self.paths = [shared] * n_paths
        self.sessions = [self.paths]
        self.bottlenecks = [(fwd, rev)]
        self.background = [BackgroundHosts("1", bg_src, bg_sink)]


class FanInTopology:
    """N sessions' access links fanned into one shared AQM bottleneck.

    The campaign topology: session ``i`` has its own server node
    ``srv{i}`` uplinked to the shared ingress router ``r1`` and
    ``paths_per_session`` client interface nodes ``cli{i}.{k}``, each
    on its own access link off the egress router ``r2`` (the paper's
    multihoming model, one node per interface).  Every session's video
    flows — and one shared pool of background hosts — cross the single
    ``r1 -> r2`` bottleneck built by :func:`_bottleneck_pair`, so all
    four queue disciplines work unchanged.

    Single-session assumptions audited away relative to the Fig. 3/6
    builders: routing is keyed by *destination node name*, so per-node
    names carry the session index and K sessions never collide in a
    route table; ports are bound per node, so per-session nodes make
    port clashes impossible; bottleneck queues key flows by the full
    ``(src, sport, dst, dport)`` tuple rather than anything sized at
    build time.
    """

    def __init__(self, sim: Simulator, spec: BottleneckSpec,
                 n_sessions: int, paths_per_session: int = 2,
                 queue_discipline: str = "droptail") -> None:
        if n_sessions < 1 or paths_per_session < 1:
            raise ValueError(
                "need n_sessions >= 1 and paths_per_session >= 1")
        self.sim = sim
        self.queue_discipline = queue_discipline
        self.n_sessions = n_sessions
        self.paths_per_session = paths_per_session

        r1 = Node(sim, "r1")
        r2 = Node(sim, "r2")
        bg_src = Node(sim, "bgsrc")
        bg_sink = Node(sim, "bgsink")
        bg_up, _ = duplex_link(
            sim, bg_src, r1, ACCESS_BANDWIDTH_BPS, ACCESS_DELAY_S,
            queue_limit_pkts=1000)
        _, bg_sink_up = duplex_link(
            sim, r2, bg_sink, ACCESS_BANDWIDTH_BPS, ACCESS_DELAY_S,
            queue_limit_pkts=1000)

        fwd, rev = _bottleneck_pair(sim, r1, r2, spec,
                                    queue_discipline)
        r1.add_route(r2.name, fwd)
        r2.add_route(r1.name, rev)

        bg_src.add_route(bg_sink.name, bg_up)
        r1.add_route(bg_sink.name, fwd)
        r2.add_route(bg_src.name, rev)
        bg_sink.add_route(bg_src.name, bg_sink_up)

        self.ingress_router = r1
        self.egress_router = r2
        self.bottleneck_fwd = fwd
        self.bottleneck_rev = rev
        self.bottlenecks = [(fwd, rev)]
        self.background = [BackgroundHosts("", bg_src, bg_sink)]

        #: Per-session path handles: ``sessions[i]`` is the list of
        #: ``paths_per_session`` handles for session ``i`` (0-based).
        self.sessions: List[List[PathHandles]] = []
        for i in range(1, n_sessions + 1):
            self.sessions.append(self._build_session(i))

    def _build_session(self, i: int) -> List[PathHandles]:
        sim = self.sim
        r1, r2 = self.ingress_router, self.egress_router
        bg = self.background[0]
        server = Node(sim, f"srv{i}")
        server_up, server_down = duplex_link(
            sim, server, r1, ACCESS_BANDWIDTH_BPS, ACCESS_DELAY_S,
            queue_limit_pkts=1000)
        handles: List[PathHandles] = []
        for k in range(1, self.paths_per_session + 1):
            client_if = Node(sim, f"cli{i}.{k}")
            _, client_up = duplex_link(
                sim, r2, client_if, ACCESS_BANDWIDTH_BPS,
                ACCESS_DELAY_S, queue_limit_pkts=1000)
            # Forward: server -> r1 -> bottleneck -> r2 -> client.
            server.add_route(client_if.name, server_up)
            r1.add_route(client_if.name, self.bottleneck_fwd)
            # (r2 -> client route installed by duplex_link)
            # Reverse: client -> r2 -> bottleneck -> r1 -> server.
            client_if.add_route(server.name, client_up)
            r2.add_route(server.name, self.bottleneck_rev)
            r1.add_route(server.name, server_down)
            handles.append(PathHandles(
                index=k, server_if=server, client_if=client_if,
                ingress_router=r1, egress_router=r2,
                bottleneck_fwd=self.bottleneck_fwd,
                bottleneck_rev=self.bottleneck_rev,
                bg_source_host=bg.source, bg_sink_host=bg.sink))
        return handles
