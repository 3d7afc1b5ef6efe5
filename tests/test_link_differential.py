"""Differential test: the one-event link against the two-event reference.

:class:`repro.sim.link.Link` fixes each packet's delivery at admission
on drop-tail and RED buffers; :class:`tests.link_reference.ReferenceLink`
pops the next packet at every serialisation end.  Both are driven with
the same random scenario -- offers (same-instant ones included),
mid-run ``set_bandwidth`` calls and occupancy reads -- and must agree
on every probe record (time, packet, occupancy), every drop decision,
every ``backlog()`` reading and every transmit-counter reading.

Times sit on a 1/1024 s grid and every serialisation time is a dyadic
fraction, so arrivals, reads and bandwidth changes land *exactly* on
serialisation ends: the tie rule is exercised, not just sampled.  All
scenario events are scheduled before the run, so at a tie they run
before the reference's serialisation-end event -- the order the tie
rule encodes.  Transmit counters are read a third of a tick later:
they count a serialisation that ends exactly at the read, as the
reference does once its serialisation-end event has run.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import MultiSessionCampaign
from repro.obs.health import LogHistogram
from repro.sim import topology
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.pool import PacketPool
from repro.sim.queueing import QUEUE_DISCIPLINES, make_queue
from tests.link_reference import ReferenceLink

TICK = 1.0 / 1024.0
#: 1024, 2048 and 8192 bytes/s: a packet of 8k bytes serialises in
#: 8k, 4k or k ticks, exactly.
BANDWIDTHS_BPS = (8.0 * 1024, 8.0 * 2048, 8.0 * 8192)
DELAYS_S = (0.0, 3 * TICK, 0.25)


class _Sink:
    def handle_packet(self, packet: Packet) -> None:
        pass


scenarios = st.fixed_dictionaries({
    "discipline": st.sampled_from(QUEUE_DISCIPLINES),
    "capacity": st.integers(min_value=1, max_value=6),
    "bandwidth": st.sampled_from(BANDWIDTHS_BPS),
    "delay": st.sampled_from(DELAYS_S),
    "trace_send": st.booleans(),
    # (tick, size): clustered ticks give same-instant offers, bursts
    # fill the buffer, gaps let the wire go idle.
    "offers": st.lists(
        st.tuples(st.integers(min_value=0, max_value=400),
                  st.integers(min_value=1, max_value=40).map(
                      lambda k: 8 * k)),
        min_size=1, max_size=60),
    "rate_changes": st.lists(
        st.tuples(st.integers(min_value=0, max_value=600),
                  st.sampled_from(BANDWIDTHS_BPS)),
        max_size=4),
    "reads": st.lists(st.integers(min_value=0, max_value=800),
                      max_size=30),
})


def run(link_cls, scenario):
    """Run one scenario on one link class; return what it observed."""
    sim = Simulator(seed=0)
    a, b = Node(sim, "a"), Node(sim, "b")
    b.bind(_Sink(), port=1)
    queue = make_queue(scenario["discipline"], scenario["capacity"],
                       rng=random.Random(7), clock=lambda: sim.now,
                       bus=sim.bus, name="q")
    link = link_cls(sim, a, b, scenario["bandwidth"], scenario["delay"],
                    queue=queue, name="a->b")
    records = []

    def record(topic, time, values):
        extra = values[2] if len(values) > 2 else None
        records.append((time, topic, values[1].seq, extra))

    topics = ["link.enqueue", "link.drop", "link.recv"]
    if scenario["trace_send"]:
        topics.append("link.send")
    for topic in topics:
        sim.bus.subscribe(topic, record)

    readings = []

    def read_backlog():
        readings.append((sim.now, link.backlog()))

    def read_counters():
        readings.append((sim.now, link.tx_packets, link.tx_bytes))

    for seq, (tick, size) in enumerate(sorted(scenario["offers"])):
        sim.at(tick * TICK, link.enqueue,
               Packet("a", "b", 1, 1, size, seq=seq))
    for tick, bandwidth in scenario["rate_changes"]:
        sim.at(tick * TICK, link.set_bandwidth, bandwidth)
    for tick in scenario["reads"]:
        sim.at(tick * TICK, read_backlog)
        sim.at(tick * TICK + TICK / 3, read_counters)
    sim.run()
    read_counters()
    return {
        "records": records,  # in emission order
        "readings": readings,
        "drops": queue.drops,
        "now": sim.now,
    }


@settings(max_examples=300, deadline=None)
@given(scenarios)
def test_one_event_link_matches_two_event_reference(scenario):
    def normalised(observed):
        # Same-instant records of different packets may interleave
        # differently: Link schedules a delivery at admission, the
        # reference at serialisation end.
        return dict(observed, records=sorted(observed["records"],
                                             key=repr))

    assert normalised(run(Link, scenario)) == \
        normalised(run(ReferenceLink, scenario))


@settings(max_examples=100, deadline=None)
@given(scenarios)
def test_send_records_follow_serialisation_order(scenario):
    """Each admitted packet is recorded enqueue, send, recv -- in that
    emission order even on a zero-delay hop, where send and recv share
    an instant (a pooled packet is recycled once delivered)."""
    scenario = dict(scenario, trace_send=True)
    by_packet = {}
    for time, topic, seq, _ in run(Link, scenario)["records"]:
        by_packet.setdefault(seq, []).append((topic, time))
    for events in by_packet.values():
        topics = [topic for topic, _ in events]
        if topics == ["link.drop"]:
            continue
        assert topics == ["link.enqueue", "link.send", "link.recv"]
        times = [time for _, time in events]
        assert times == sorted(times)


def test_pending_send_is_retimed_with_its_packet():
    """A send subscriber attached while the wire is busy starts with
    the next admitted packet; a rate change moves that send too."""
    sim = Simulator(seed=0)
    a, b = Node(sim, "a"), Node(sim, "b")
    b.bind(_Sink(), port=1)
    link = Link(sim, a, b, 8.0 * 1024, 0.25)  # 1024 B = 1 s on the wire
    sends, recvs = {}, {}

    def attach():
        sim.bus.subscribe("link.send", lambda _t, time, values:
                          sends.setdefault(values[1].seq, time))
        sim.bus.subscribe("link.recv", lambda _t, time, values:
                          recvs.setdefault(values[1].seq, time))

    for seq, at in enumerate((0.0, 0.0, 0.5)):
        sim.at(at, link.enqueue, Packet("a", "b", 1, 1, 1024, seq=seq))
    sim.at(0.25, attach)
    sim.at(0.75, link.set_bandwidth, 8.0 * 2048)
    sim.run()
    # Packet 1 starts at 1.0 and now takes 0.5 s; packet 2 follows.
    assert recvs == {0: 1.25, 1: 1.75, 2: 2.25}
    assert sends == {2: 2.0}


@pytest.mark.parametrize("link_cls", [ReferenceLink, Link])
def test_arrival_as_the_wire_frees_sees_the_next_packet_buffered(
        link_cls):
    """The tie rule: at t=1 packet 1 starts, yet the offer at t=1
    still finds it in the one-packet buffer and is dropped."""
    scenario = {"discipline": "droptail", "capacity": 1,
                "bandwidth": 8.0 * 1024, "delay": 0.0,
                "trace_send": True, "rate_changes": [], "reads": [],
                "offers": [(0, 1024), (512, 1024), (1024, 1024)]}
    observed = run(link_cls, scenario)
    assert observed["drops"] == 1
    assert (1.0, "link.drop", 2, 1) in observed["records"]


def test_counters_survive_packet_recycling():
    """A buffered entry can outlive its packet: with no further offer
    it is reconciled only when read, after the pool has recycled the
    delivered packet under a new size."""
    sim = Simulator(seed=0)
    sim.pool = PacketPool()
    a, b = Node(sim, "a"), Node(sim, "b")
    b.bind(_Sink(), port=1)
    link = Link(sim, a, b, 8.0 * 1024, 0.01)
    for size in (100, 200):
        link.enqueue(sim.pool.acquire("a", "b", 1, 1, size))
    sim.run()
    assert sim.pool.free == 2
    for _ in range(2):
        sim.pool.acquire("a", "b", 1, 1, 1500)
    assert (link.tx_packets, link.tx_bytes) == (2, 300)


def test_one_event_per_packet_untraced():
    """Drop-tail/RED cost one calendar event per delivered packet."""
    sim = Simulator(seed=0)
    a, b = Node(sim, "a"), Node(sim, "b")
    b.bind(_Sink(), port=1)
    link = Link(sim, a, b, 8.0 * 1024, 0.01, queue_limit_pkts=100)
    for seq in range(50):
        sim.at(seq * 0.25, link.enqueue, Packet("a", "b", 1, 1, 500,
                                                seq=seq))
    assert sim.run() == 50 + 50  # the offers, then one delivery each
    assert link.tx_packets == 50


class _RecordingHistogram(LogHistogram):
    __slots__ = ("samples",)

    def __init__(self):
        super().__init__()
        self.samples = []

    def record(self, value, n=1):
        self.samples.append(value)
        super().record(value, n)


def _campaign_through(monkeypatch, link_cls):
    """A small overloaded campaign whose bottleneck pair is built from
    ``link_cls``; returns its result, the raw queue-occupancy samples
    the health layer took and its rollup."""
    monkeypatch.setattr(topology, "Link", link_cls)
    campaign = MultiSessionCampaign(
        mu=10.0, duration_s=6.0, n_sessions=4,
        bottleneck=topology.BottleneckSpec(
            bandwidth_bps=400_000.0, delay_s=0.02, buffer_pkts=20),
        seed=3, stagger_s=0.5, warmup_s=2.0)
    assert isinstance(campaign.topology.bottleneck_fwd, link_cls)
    aggregator = campaign.attach_health(tau=4.0, queue_sample_s=0.1)
    aggregator.queue_occupancy = _RecordingHistogram()
    result = campaign.run(drain_s=5.0)
    return result, aggregator.queue_occupancy.samples, \
        aggregator.rollup()


def test_health_queue_samples_match_reference_link(monkeypatch):
    result, samples, rollup = _campaign_through(monkeypatch, Link)
    ref_result, ref_samples, ref_rollup = _campaign_through(
        monkeypatch, ReferenceLink)
    assert len(samples) > 50 and max(samples) > 0
    assert samples == ref_samples
    assert rollup == ref_rollup
    assert result.sessions == ref_result.sessions
    assert result.bottleneck_drop_fraction == \
        ref_result.bottleneck_drop_fraction
    assert result.events_processed < ref_result.events_processed
