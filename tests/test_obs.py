"""Tests for the instrumentation bus, its sinks and the probe points.

The heart of the suite is the compatibility contract: a
:class:`~repro.obs.TraceSink` attached to a session must reproduce the
pre-bus ``trace=`` plumbing bit-for-bit, so the Section-6 estimation
pipeline is provably unchanged by the refactor.  The golden flow
estimates below were captured on the pre-refactor code (commit
0a7aad2) for Setting 2-2, seed 220, 30 s of video; the record pins
cover the same run.
"""

import hashlib
import io
import json

import pytest

from repro import BottleneckSpec, MultiSessionCampaign, PathConfig
from repro.obs import (
    NAMES,
    EventBus,
    JsonlSink,
    RecordingSink,
    TimeSeriesSampler,
    TraceSink,
    validate_jsonl,
)
from repro.sim.engine import Simulator
from tests.trace_estimator import estimate_flow

# ---------------------------------------------------------------------
# Goldens captured on the pre-refactor code (see module docstring).
# ---------------------------------------------------------------------
GOLDEN_SETTING = "2-2"
GOLDEN_SEED = 220
GOLDEN_DURATION_S = 30.0
# The record count and digest cover the whole run.  They were re-pinned
# when runs began to end once the session is final: the 171,357
# records dropped were background traffic after that instant, and the
# video-flow records and flow estimates below did not move.
GOLDEN_N_RECORDS = 143196
# sha256 over the records with packet uids renumbered by first
# appearance (raw uids come from a process-global counter, so the
# digest must not depend on what ran earlier in the process).
GOLDEN_DIGEST = \
    "b13071eb94751194394f31f0f347529ec9564cd0db6abbcba5fd0a378daf79e8"
GOLDEN_FLOW0 = dict(loss_rate=0.01738122827346466,
                    retransmission_rate=0.023174971031286212,
                    mean_rtt=0.19176377514583512,
                    timeout_ratio=1.8617409918179146,
                    segments=863)
GOLDEN_FLOW1 = dict(loss_rate=0.02180232558139535,
                    retransmission_rate=0.04505813953488372,
                    mean_rtt=0.22678963348465467,
                    timeout_ratio=2.731427578683629,
                    segments=688)


def tiny_session(seed=5, **kwargs):
    spec = BottleneckSpec(bandwidth_bps=8e5, delay_s=0.01,
                          buffer_pkts=15)
    paths = [PathConfig(bottleneck=spec, n_ftp=1, n_http=2)] * 2
    defaults = dict(mu=30, duration_s=8.0, paths=paths, seed=seed,
                    warmup_s=5.0)
    defaults.update(kwargs)
    return MultiSessionCampaign(**defaults)


def video_flow_key(session, idx):
    sender = session.assemblies[0].connections[idx].sender
    return (sender.node.name, sender.port, sender.dst_name,
            sender.dst_port)


# ---------------------------------------------------------------------
# EventBus unit behaviour
# ---------------------------------------------------------------------
def test_unknown_topic_rejected():
    bus = EventBus()
    with pytest.raises(ValueError, match="not a declared probe"):
        bus.probe("no.such.topic")


def test_probe_shared_per_topic():
    bus = EventBus()
    assert bus.probe("link.drop") is bus.probe("link.drop")


def test_probe_falsy_until_subscribed():
    bus = EventBus()
    probe = bus.probe("engine.event")
    assert not probe
    bus.subscribe("engine.event", lambda *a: None)
    assert probe


def test_pattern_matching():
    bus = EventBus()
    seen = []
    bus.subscribe("link.*", lambda topic, t, v: seen.append(topic))
    bus.probe("link.drop").emit(0.0, "l", None, 0)
    bus.probe("tcp.cwnd")  # not matched by link.*
    assert not bus.probe("tcp.cwnd")
    assert seen == ["link.drop"]


def test_star_pattern_applies_to_late_probes():
    bus = EventBus()
    sink = RecordingSink(patterns=("*",))
    bus.attach(sink)
    probe = bus.probe("client.buffer")  # declared after subscribing
    probe.emit(1.5, 7)
    assert sink.events == [("client.buffer", 1.5, (7,))]


def test_unsubscribe_and_quiet():
    bus = EventBus()
    sink = RecordingSink()
    bus.attach(sink)
    assert not bus.quiet
    bus.detach(sink)
    assert bus.quiet
    assert not bus.probe("link.send")


def test_schema_fields_are_tuples_of_names():
    for name, (kind, fields, _) in NAMES.items():
        assert isinstance(fields, tuple), name
        assert all(isinstance(f, str) and f for f in fields), name
        assert fields or kind != "probe", name


# ---------------------------------------------------------------------
# Zero-subscriber contract
# ---------------------------------------------------------------------
def test_unobserved_run_emits_nothing():
    session = tiny_session()
    session.run(drain_s=5.0)
    assert session.bus.quiet
    assert all(count == 0
               for count in session.bus.emissions().values())


# ---------------------------------------------------------------------
# Determinism and ordering
# ---------------------------------------------------------------------
def test_event_stream_deterministic_for_fixed_seed():
    # Packet uids come from a process-global counter, so they differ
    # between in-process runs; renumber them by first appearance and
    # require everything else to be bit-identical.
    def normalised(stream):
        remap = {}
        out = []
        for line in stream.splitlines():
            record = json.loads(line)
            packet = record.get("packet")
            if isinstance(packet, dict) and "uid" in packet:
                packet["uid"] = remap.setdefault(
                    packet["uid"], len(remap))
            out.append(json.dumps(record, sort_keys=True))
        return out

    streams = []
    for _ in range(2):
        session = tiny_session(seed=12)
        buffer = io.StringIO()
        session.attach_jsonl(buffer)
        session.run(drain_s=5.0)
        streams.append(buffer.getvalue())
    assert normalised(streams[0]) == normalised(streams[1])
    assert streams[0].count("\n") > 1000


def test_event_times_monotone_per_run():
    session = tiny_session(seed=12)
    sink = RecordingSink()
    session.bus.attach(sink)
    session.run(drain_s=5.0)
    times = [t for _topic, t, _v in sink.events]
    assert times == sorted(times)


# ---------------------------------------------------------------------
# PacketTrace compatibility (bit-identity with the pre-bus plumbing)
# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_run():
    """The golden 2-2 session and its bottleneck trace, run once."""
    from repro.experiments.configs import ALL_SETTINGS

    setting = ALL_SETTINGS[GOLDEN_SETTING]
    session = MultiSessionCampaign(
        mu=setting.mu, duration_s=GOLDEN_DURATION_S,
        paths=setting.path_configs(),
        shared_bottleneck=setting.shared_bottleneck, seed=GOLDEN_SEED)
    trace = session.attach_packet_trace()
    session.run()
    return session, trace


def records_digest(records):
    """sha256 over trace records, packet uids renumbered by first
    appearance."""
    remap = {}
    digest = hashlib.sha256()
    for rec in records:
        uid = remap.setdefault(rec.uid, len(remap))
        digest.update(repr(
            (rec.time, rec.event, rec.link, uid, rec.src, rec.dst,
             rec.sport, rec.dport, rec.seq, rec.ack, rec.size,
             rec.is_ack, rec.is_retransmit)).encode())
    return digest.hexdigest()


def test_trace_sink_bit_identical_to_pre_refactor_goldens(golden_run):
    session, trace = golden_run
    assert len(trace.records) == GOLDEN_N_RECORDS
    assert records_digest(trace.records) == GOLDEN_DIGEST

    for idx, golden in ((0, GOLDEN_FLOW0), (1, GOLDEN_FLOW1)):
        estimate = estimate_flow(trace, video_flow_key(session, idx))
        assert estimate.loss_rate == golden["loss_rate"]
        assert estimate.retransmission_rate == \
            golden["retransmission_rate"]
        assert estimate.mean_rtt == golden["mean_rtt"]
        assert estimate.timeout_ratio == golden["timeout_ratio"]
        assert estimate.segments == golden["segments"]


# The same trace restricted to the two video flows (data segments and
# their ACKs): everything the session itself put on the bottlenecks.
# The background flows' records also depend on how long the run goes
# on after the video, which a change to the run's end may move; these
# must not.
GOLDEN_VIDEO_N_RECORDS = 7150
GOLDEN_VIDEO_DIGEST = \
    "3e0c69e552abb78a069121b2ec6f9dd640e34da1240c44f77e9dbc00e9e8b2f7"


def test_golden_video_flow_records_pinned(golden_run):
    session, trace = golden_run
    keys = set()
    for idx in (0, 1):
        src, sport, dst, dport = video_flow_key(session, idx)
        keys.update({(src, sport, dst, dport), (dst, dport, src, sport)})
    video = [rec for rec in trace.records if rec.flow_key() in keys]
    assert len(video) == GOLDEN_VIDEO_N_RECORDS
    assert records_digest(video) == GOLDEN_VIDEO_DIGEST


# The correlated-paths (Fig. 6) topology, pinned the same way: sha256
# over the session's arrivals, per-flow stats, path shares and the
# bottleneck drop fraction, captured on the single-session builder
# that preceded MultiSessionCampaign(paths=...).  Re-pinned when runs
# began to end once the session is final: the drop fraction counts
# the background traffic up to the run's end and went from 0.01642 to
# 0.01815; the session's own record (FIG6_RECORD_DIGEST) did not move.
FIG6_SETTING = "corr-2"
FIG6_SEED = 606
FIG6_DURATION_S = 10.0
FIG6_DIGEST = \
    "d51f3e54d7cdb493f4936dc49a425369f3259e505be092525d191cadcacd07c8"


def run_digest(arrivals, flow_stats, path_shares, *rest):
    digest = hashlib.sha256()
    for item in (arrivals, [sorted(s.items()) for s in flow_stats],
                 path_shares, *rest):
        digest.update(repr(item).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def fig6_result():
    from repro.experiments.configs import ALL_SETTINGS

    setting = ALL_SETTINGS[FIG6_SETTING]
    assert setting.shared_bottleneck
    return MultiSessionCampaign(
        mu=setting.mu, duration_s=FIG6_DURATION_S,
        paths=setting.path_configs(),
        shared_bottleneck=setting.shared_bottleneck,
        seed=FIG6_SEED).run()


def test_correlated_paths_run_bit_identical_to_pinned_digest(fig6_result):
    (session,) = fig6_result.sessions
    assert run_digest(session.arrivals, session.flow_stats,
                      session.path_shares,
                      fig6_result.bottleneck_drop_fraction) == FIG6_DIGEST


# The session's own record from the same run, without the drop
# fraction: that one counts the background flows' packets for as long
# as the run goes on, the session's arrivals, flow stats and path
# shares do not.
FIG6_RECORD_DIGEST = \
    "41b67fdbdc07343c5847dc65171b0beb7cb024475f07e0402a765fd080f22e52"


def test_correlated_paths_session_record_pinned(fig6_result):
    (session,) = fig6_result.sessions
    assert run_digest(session.arrivals, session.flow_stats,
                      session.path_shares) == FIG6_RECORD_DIGEST


# The probe JSONL stream of a short 2-2 run, pinned byte for byte:
# sha256 of everything JsonlSink writes for every topic.  Packet uids
# come from a process-global counter, so the test restarts it.
JSONL_SEED = 17
JSONL_N_LINES = 66141
JSONL_DIGEST = \
    "4380bf47bd2946654ffd12352846f7a1d4763cc3bc9bd450a0dcd436c7dcba27"


def test_jsonl_stream_bit_identical_to_pinned_digest(monkeypatch):
    import itertools

    import repro.sim.packet as packet_module
    from repro.experiments.configs import ALL_SETTINGS

    monkeypatch.setattr(packet_module, "_uid_counter", itertools.count())
    setting = ALL_SETTINGS[GOLDEN_SETTING]
    session = MultiSessionCampaign(
        mu=setting.mu, duration_s=2.0, warmup_s=1.0,
        paths=setting.path_configs(),
        shared_bottleneck=setting.shared_bottleneck, seed=JSONL_SEED)
    buffer = io.StringIO()
    session.attach_jsonl(buffer)
    session.run(drain_s=1.0)
    text = buffer.getvalue()
    assert len(text.splitlines()) == JSONL_N_LINES
    assert hashlib.sha256(text.encode()).hexdigest() == JSONL_DIGEST


# The same stream with every engine.* line removed.  Engine lines
# report calendar mechanics (pops, heap length, compactions), so a
# change to how the calendar is kept moves them; every other topic is
# the simulated network, the TCP flows and the session, and must not.
JSONL_NON_ENGINE_N_LINES = 41779
JSONL_NON_ENGINE_DIGEST = \
    "c2a18080462a83132058a1954eb33310bb18c76226f2354d25e56e15bfb5deec"


def test_jsonl_stream_without_engine_lines_pinned(monkeypatch):
    import itertools

    import repro.sim.packet as packet_module
    from repro.experiments.configs import ALL_SETTINGS

    monkeypatch.setattr(packet_module, "_uid_counter", itertools.count())
    setting = ALL_SETTINGS[GOLDEN_SETTING]
    session = MultiSessionCampaign(
        mu=setting.mu, duration_s=2.0, warmup_s=1.0,
        paths=setting.path_configs(),
        shared_bottleneck=setting.shared_bottleneck, seed=JSONL_SEED)
    buffer = io.StringIO()
    session.attach_jsonl(buffer)
    session.run(drain_s=1.0)
    kept = [line for line in buffer.getvalue().splitlines()
            if not json.loads(line)["topic"].startswith("engine.")]
    assert len(kept) == JSONL_NON_ENGINE_N_LINES
    text = "".join(line + "\n" for line in kept)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == JSONL_NON_ENGINE_DIGEST


def test_timer_and_calendar_entries_nearly_all_fire(monkeypatch):
    """On a JSONL_SEED 2-2 run, at most 5% of the TCP timer entries
    and of all calendar entries are scheduled and never popped (about
    3% and 0.5%; cancelling and rescheduling on every ACK left 93% and
    16%).  Each RTO and delayed-ACK timer keeps one entry that
    re-enters the calendar.  The run keeps the default 20 s warm-up:
    an entry is still cancelled when a connection's first ACK pulls
    its 3 s initial RTO earlier, and with every flow starting in the
    first half-second those cancellations would dominate."""
    from collections import Counter

    from repro.experiments.configs import ALL_SETTINGS

    scheduled, fired = Counter(), Counter()
    original_at = Simulator.at

    def counting_at(sim, when, callback, *args):
        label = (getattr(callback, "__module__", None)
                 or type(callback).__module__,
                 getattr(callback, "__qualname__", None)
                 or type(callback).__qualname__)
        scheduled[label] += 1

        def fire(*fire_args):
            fired[label] += 1
            callback(*fire_args)
        return original_at(sim, when, fire, *args)

    monkeypatch.setattr(Simulator, "at", counting_at)
    setting = ALL_SETTINGS[GOLDEN_SETTING]
    MultiSessionCampaign(
        mu=setting.mu, duration_s=2.0, paths=setting.path_configs(),
        shared_bottleneck=setting.shared_bottleneck,
        seed=JSONL_SEED).run(drain_s=1.0)

    timers = [label for label in scheduled
              if label[0].startswith("repro.tcp.")]
    assert {qualname for _, qualname in timers} == \
        {"RenoSender._on_timeout", "TcpReceiver._on_delack_timer"}
    for labels in (timers, list(scheduled)):
        total = sum(scheduled[label] for label in labels)
        popped = sum(fired[label] for label in labels)
        assert popped <= total
        assert total - popped <= 0.05 * total


def test_trace_sink_link_filter():
    session = tiny_session(seed=3)
    unfiltered = TraceSink()
    session.bus.attach(unfiltered)
    filtered = session.attach_packet_trace()  # bottleneck links only
    session.run(drain_s=5.0)
    assert len(unfiltered.trace.records) > len(filtered.records)
    bottleneck_names = {link.name
                        for pair in session.topology.bottlenecks
                        for link in pair}
    assert {rec.link for rec in filtered.records} <= bottleneck_names
    assert {rec.link for rec in unfiltered.trace.records} \
        > bottleneck_names


# ---------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------
def test_counters_match_bus_emissions():
    session = tiny_session(seed=7)
    counters = session.attach_counters()
    session.run(drain_s=5.0)
    emissions = {topic: count
                 for topic, count in session.bus.emissions().items()
                 if count}
    assert counters.as_dict() == emissions
    (assembly,) = session.assemblies
    assert counters.counts["source.generate"] == \
        assembly.source.total_packets
    assert counters.counts["client.arrival"] == \
        assembly.client.received
    assert "tcp.cwnd" in counters.counts
    assert counters.summary()  # formats without raising


def test_jsonl_sink_schema_valid(tmp_path):
    path = str(tmp_path / "events.jsonl")
    session = tiny_session(seed=7)
    sink = session.attach_jsonl(path)
    session.run(drain_s=5.0)
    sink.close()
    count = validate_jsonl(path)
    assert count == sink.lines_written > 1000


def test_recording_sink_snapshots_pooled_packets():
    """Every run recycles packets; what a RecordingSink kept must still
    read as it was emitted (the JSONL sink serialises at emission)."""
    from repro.obs.sinks import _jsonify
    from repro.sim.packet import Packet

    session = tiny_session(seed=7)
    recorder = RecordingSink(patterns=("link.*",))
    session.bus.attach(recorder)
    buffer = io.StringIO()
    session.attach_jsonl(buffer, patterns=("link.*",))
    session.run(drain_s=5.0)
    assert session.sim.pool.recycled > 1000
    lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert len(lines) == len(recorder.events) > 1000
    acks = 0
    for (topic, time, values), line in zip(recorder.events, lines):
        packet = values[1]
        assert isinstance(packet, Packet)
        assert (topic, time) == (line["topic"], line["t"])
        assert _jsonify(packet) == line["packet"]
        acks += packet.is_ack
    assert 0 < acks < len(lines)


def test_validate_jsonl_rejects_bad_records(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(
            {"topic": "bogus.topic", "t": 1.0}) + "\n")
    with pytest.raises(ValueError, match="unknown topic"):
        validate_jsonl(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(
            {"topic": "client.buffer", "t": 1.0}) + "\n")
    with pytest.raises(ValueError, match="fields"):
        validate_jsonl(path)


@pytest.mark.parametrize("time", ["true", "NaN", "Infinity"])
def test_validate_jsonl_rejects_bool_and_non_finite_times(tmp_path,
                                                          time):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"topic": "client.buffer", "t": %s, "level": 1}\n'
                    % time, encoding="utf-8")
    with pytest.raises(ValueError, match="invalid time"):
        validate_jsonl(str(path))


def test_jsonl_sink_pattern_restriction():
    session = tiny_session(seed=7)
    buffer = io.StringIO()
    sink = JsonlSink(buffer, patterns=("client.*",))
    session.bus.attach(sink)
    session.run(drain_s=5.0)
    topics = {json.loads(line)["topic"]
              for line in buffer.getvalue().splitlines() if line}
    assert topics
    assert all(topic.startswith("client.") for topic in topics)


# ---------------------------------------------------------------------
# Time-series sampler
# ---------------------------------------------------------------------
def test_timeseries_sampler_collects_curves():
    session = tiny_session(seed=7)
    sampler = session.attach_timeseries(interval_s=1.0)
    session.run(drain_s=5.0)
    names = set(sampler.series)
    assert {"cwnd.video1", "cwnd.video2",
            "server_queue.depth", "client.received"} <= names
    for points in sampler.series.values():
        assert len(points) == sampler.samples_taken
        times = [t for t, _v in points]
        assert times == sorted(times)
    handle = io.StringIO()
    rows = sampler.to_csv(handle)
    lines = handle.getvalue().splitlines()
    assert lines[0] == "series,t,value"
    assert rows == len(lines) - 1 \
        == sampler.samples_taken * len(sampler.series)


def test_sampler_until_bounds_sampling():
    sim = Simulator(seed=1)
    sampler = TimeSeriesSampler(sim, interval_s=0.5, until=3.0)
    ticks = [0]
    sampler.add_series("ticks", lambda: ticks[0])
    sim.run(until=100.0)
    assert sim.now == 100.0
    assert sampler.samples_taken == 7  # 0.0, 0.5, ..., 3.0
    assert sim.pending_events == 0  # did not keep the sim alive


def test_sampler_validates_interval():
    with pytest.raises(ValueError):
        TimeSeriesSampler(Simulator(), interval_s=0.0)


# ---------------------------------------------------------------------
# Engine: lazy cancellation + heap compaction
# ---------------------------------------------------------------------
def test_cancelled_events_never_fire_and_pending_is_net():
    sim = Simulator()
    fired = []
    events = [sim.at(float(i), fired.append, i) for i in range(10)]
    for event in events[::2]:
        event.cancel()
    assert sim.pending_events == 5
    sim.run()
    assert fired == [1, 3, 5, 7, 9]
    assert sim.pending_events == 0


def test_cancel_idempotent():
    sim = Simulator()
    event = sim.at(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.pending_events == 0


def test_heap_compaction_triggers_past_threshold():
    sim = Simulator()
    recording = RecordingSink(patterns=("engine.compact",))
    sim.bus.attach(recording)
    events = [sim.at(float(i), lambda: None) for i in range(100)]
    for event in events[:60]:
        event.cancel()
    # The sweep fires at the 51st cancellation (51 * 2 > 100): those 51
    # entries are physically removed; the 9 cancels that follow stay
    # lazily deleted because the calendar is now under the size floor.
    assert len(sim._heap) == 49
    assert sim.pending_events == 40
    assert len(recording.events) == 1
    _topic, _t, (removed, pending) = recording.events[0]
    assert removed == 51
    assert pending == 49
    sim.run()
    assert sim.events_processed == 40


def test_no_compaction_below_min_size():
    sim = Simulator()
    events = [sim.at(float(i), lambda: None) for i in range(20)]
    for event in events[:15]:
        event.cancel()
    assert len(sim._heap) == 20  # lazy deletion only
    assert sim.pending_events == 5
    sim.run()
    assert sim.events_processed == 5


def test_compaction_preserves_fire_order():
    sim = Simulator()
    fired = []
    events = [sim.at(float(i), fired.append, i) for i in range(200)]
    for event in events:
        if event.args[0] % 3:
            event.cancel()
    sim.run()
    assert fired == [i for i in range(200) if i % 3 == 0]


def test_step_skips_cancelled():
    sim = Simulator()
    fired = []
    first = sim.at(1.0, fired.append, "a")
    sim.at(2.0, fired.append, "b")
    first.cancel()
    assert sim.step() is True
    assert fired == ["b"]
    assert sim.step() is False


# ---------------------------------------------------------------------
# Session error paths + experiments plumbing
# ---------------------------------------------------------------------
def test_shared_bottleneck_mismatched_specs_rejected():
    paths = [
        PathConfig(bottleneck=BottleneckSpec(
            bandwidth_bps=1e6, delay_s=0.01, buffer_pkts=10)),
        PathConfig(bottleneck=BottleneckSpec(
            bandwidth_bps=2e6, delay_s=0.02, buffer_pkts=20)),
    ]
    with pytest.raises(ValueError, match="one common spec"):
        MultiSessionCampaign(mu=30, duration_s=5.0, paths=paths,
                             shared_bottleneck=True, seed=1)
