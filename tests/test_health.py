"""Functional tests for the campaign QoE health layer.

Covers the tentpole contracts end to end: streaming per-session
rollups on a real (deliberately overloaded) campaign, the armed stall
trigger freezing schema-valid bounded windows for exactly the stalled
sessions, and the Prometheus / terminal / HTML exporters.
"""

import hashlib
import json
import os

import pytest

from repro.core.campaign import MultiSessionCampaign
from repro.obs import validate_jsonl
from repro.obs.bus import EventBus
from repro.obs.export import (health_table, html_dashboard,
                              prometheus_exposition,
                              validate_exposition)
from repro.obs.health import HealthAggregator, LogHistogram, SessionMeta
from repro.obs.recorder import Trigger
from repro.obs.sampler import TimeSeriesSampler
from repro.sim.topology import BottleneckSpec, PathConfig

#: A bottleneck sized well below the offered load (4 sessions x
#: 2 paths x 10 pkt/s x 1500 B = ~960 kbps offered over 400 kbps), so
#: every session is late and the playout clock starves — the regime
#: the stall trigger exists for.
#: sha256 pins of the ``instrumented`` run's exports: the Prometheus
#: exposition text, and the flight-recorder dumps (file name + bytes
#: of each, in dump order).
EXPOSITION_DIGEST = \
    "06a76e80033fa500fdeaf3d4e47fdee877fbe764b2809c2651da5bf296c8aed6"
DUMPS_DIGEST = \
    "e95801a939f8a89ede209398db15e105b93f2aa5f4c37c3db1138a9647ac9d85"

OVERLOADED = BottleneckSpec(bandwidth_bps=400_000.0, delay_s=0.02,
                            buffer_pkts=20)


def _campaign(**kwargs):
    defaults = dict(mu=10.0, duration_s=10.0, n_sessions=4,
                    bottleneck=OVERLOADED, paths_per_session=2,
                    queue_discipline="droptail", seed=3,
                    stagger_s=0.5, warmup_s=2.0)
    defaults.update(kwargs)
    return MultiSessionCampaign(**defaults)


@pytest.fixture(scope="module")
def instrumented():
    """One overloaded campaign run with recorder + health attached."""
    campaign = _campaign()
    recorder = campaign.attach_recorder(
        triggers=(Trigger(kind="stall", threshold=0.5),),
        ring_size=64)
    aggregator = campaign.attach_health(tau=2.0)
    result = campaign.run(drain_s=10.0)
    return campaign, recorder, aggregator, result


class TestRollup:
    def test_rollup_counts_and_rows(self, instrumented):
        campaign, _, aggregator, result = instrumented
        rollup = aggregator.rollup()
        assert rollup["counters"]["sessions"] == 4
        assert rollup["counters"]["done"] == 4
        assert len(rollup["sessions"]) == 4
        labels = [row["label"] for row in rollup["sessions"]]
        assert labels == [a.label for a in campaign.assemblies]
        for row in rollup["sessions"]:
            assert row["done"]
            assert row["arrivals"] == sum(row["path_packets"].values())
            assert 0.0 <= row["late_fraction"] <= 1.0
            assert row["startup_delay_s"] >= 0.0

    def test_rollup_matches_campaign_result(self, instrumented):
        _, _, aggregator, result = instrumented
        by_label = {row["label"]: row
                    for row in aggregator.rollup()["sessions"]}
        for summary in result.sessions:
            row = by_label[summary.label]
            assert row["arrivals"] == len(summary.arrivals)
            # session_done snapshots delivery at the instant the video
            # ends; late packets keep arriving through the drain.
            assert 0 < row["received"] <= summary.received
            # The same deadline test and missing-as-late convention
            # as metrics.late_fraction at the aggregator's reference
            # tau: equal bit for bit.
            assert row["late_fraction"] == summary.late_fraction(2.0)

    def test_population_hists_cover_every_session(self, instrumented):
        _, _, aggregator, _ = instrumented
        hists = aggregator.rollup()["hists"]
        for name in ("late_fraction", "stall_s", "rebuffers",
                     "startup_delay_s"):
            assert hists[name]["count"] == 4, name
        # Sampled on the simulated clock while each session is live.
        assert hists["cwnd"]["count"] > 0
        assert hists["send_buffer"]["count"] > 0
        assert hists["queue_occupancy"]["count"] > 0

    def test_overload_actually_stalls(self, instrumented):
        _, _, aggregator, _ = instrumented
        assert aggregator.stall_events > 0
        assert aggregator.drops > 0


class TestStallTrigger:
    def test_frozen_windows_are_stalled_sessions_only(
            self, instrumented):
        _, recorder, aggregator, _ = instrumented
        stalled = {s.meta.label for s in aggregator.sessions
                   if s.stall_s >= 0.5}
        assert recorder.frozen
        assert set(recorder.frozen) <= stalled
        for key, event in recorder.frozen.items():
            assert event.kind == "stall"
            assert event.session == key
            assert event.value >= 0.5

    def test_dumps_are_bounded_schema_valid_jsonl(
            self, instrumented, tmp_path):
        _, recorder, _, _ = instrumented
        paths = recorder.dump(str(tmp_path))
        assert paths == recorder.dump_paths(str(tmp_path))
        for path in paths:
            events = validate_jsonl(path)
            assert 0 < events <= 64
        # The ring holds the stall emission that fired the trigger
        # plus the arrivals that led up to it.
        with open(paths[0]) as handle:
            topics = [json.loads(line)["topic"] for line in handle]
        assert "health.stall" in topics
        assert "client.arrival" in topics

    def test_dumps_bit_identical_to_pinned_digest(
            self, instrumented, tmp_path):
        _, recorder, _, _ = instrumented
        digest = hashlib.sha256()
        for path in recorder.dump(str(tmp_path)):
            digest.update(os.path.basename(path).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
        assert digest.hexdigest() == DUMPS_DIGEST

    def test_rerun_dumps_bit_identical(self, instrumented, tmp_path):
        _, recorder, _, _ = instrumented
        campaign = _campaign()
        replay = campaign.attach_recorder(
            triggers=(Trigger(kind="stall", threshold=0.5),),
            ring_size=64)
        campaign.attach_health(tau=2.0)
        campaign.run(drain_s=10.0)
        first = tmp_path / "a"
        second = tmp_path / "b"
        for path_a, path_b in zip(recorder.dump(str(first)),
                                  replay.dump(str(second))):
            with open(path_a, "rb") as a, open(path_b, "rb") as b:
                assert a.read() == b.read()


    def test_drop_burst_dump_keeps_packets_as_objects(self, tmp_path):
        campaign = _campaign()
        recorder = campaign.attach_recorder(
            triggers=(Trigger(kind="drop_burst", threshold=5.0,
                              window_s=1.0),), ring_size=16)
        campaign.run(drain_s=2.0)
        (path,) = recorder.dump(str(tmp_path))
        assert validate_jsonl(path) > 0
        with open(path) as handle:
            drops = [record for record in map(json.loads, handle)
                     if record["topic"] == "link.drop"]
        assert drops
        assert all(isinstance(r["packet"], dict) and "uid" in r["packet"]
                   for r in drops)


class TestExporters:
    def test_prometheus_exposition_validates(self, instrumented):
        _, _, aggregator, _ = instrumented
        text = prometheus_exposition(aggregator.rollup())
        assert validate_exposition(text) > 0
        assert "repro_campaign_sessions 4" in text
        assert "repro_session_late_fraction" in text
        assert "repro_late_fraction_bucket" in text

    def test_exposition_bit_identical_to_pinned_digest(
            self, instrumented):
        _, _, aggregator, _ = instrumented
        text = prometheus_exposition(aggregator.rollup())
        assert hashlib.sha256(text.encode()).hexdigest() == \
            EXPOSITION_DIGEST

    def test_exposition_type_must_match_the_declared_kind(self):
        text = ("# TYPE repro_late_fraction gauge\n"
                "repro_late_fraction 0.5\n")
        with pytest.raises(ValueError, match="declared a histogram"):
            validate_exposition(text)

    def test_histogram_series_only_for_histograms(self):
        text = ("# TYPE repro_campaign_sessions gauge\n"
                "repro_campaign_sessions_sum 4.0\n")
        with pytest.raises(ValueError, match="undeclared metric"):
            validate_exposition(text)
        text = ("# TYPE repro_late_fraction histogram\n"
                "repro_late_fraction 0.5\n")
        with pytest.raises(ValueError, match="undeclared metric"):
            validate_exposition(text)

    def test_health_table_lists_sessions(self, instrumented):
        campaign, _, aggregator, _ = instrumented
        table = health_table(aggregator.rollup())
        for assembly in campaign.assemblies:
            assert assembly.label.rstrip(".") in table

    def test_html_dashboard_is_self_contained(self, instrumented):
        _, _, aggregator, _ = instrumented
        page = html_dashboard(aggregator.rollup(), title="t")
        assert page.startswith("<!DOCTYPE html>")
        assert "src=" not in page and "href=" not in page


class TestPaperTopologies:
    """Health rollups and the flight recorder on one-session runs of
    the paper's Fig. 3 (independent) and Fig. 6 (shared) topologies."""

    TAU = 1.0
    SAMPLE_S = 0.25

    @pytest.fixture(scope="class", params=[False, True],
                    ids=["fig3", "fig6"])
    def paper_run(self, request):
        path = PathConfig(bottleneck=BottleneckSpec(
            bandwidth_bps=300_000.0, delay_s=0.02, buffer_pkts=20),
            n_ftp=2)
        campaign = MultiSessionCampaign(
            mu=20.0, duration_s=10.0, paths=[path, path],
            shared_bottleneck=request.param, seed=4, warmup_s=2.0)
        recorder = campaign.attach_recorder(
            triggers=(Trigger(kind="stall", threshold=0.2),),
            ring_size=64)
        aggregator = campaign.attach_health(
            tau=self.TAU, queue_sample_s=self.SAMPLE_S)
        # Polls every forward bottleneck at the aggregator's instants.
        sampler = TimeSeriesSampler(
            campaign.sim, interval_s=self.SAMPLE_S,
            start_at=self.SAMPLE_S, until=campaign.assemblies[0].end_at)
        for fwd, _ in campaign.topology.bottlenecks:
            sampler.add_series(fwd.name, fwd.backlog)
        result = campaign.run(drain_s=10.0)
        return campaign, recorder, aggregator, sampler, result

    def test_late_fraction_matches_the_result_exactly(self, paper_run):
        _, _, aggregator, _, result = paper_run
        (row,) = aggregator.rollup()["sessions"]
        (summary,) = result.sessions
        assert row["label"] == summary.label == ""
        assert row["done"]
        assert row["arrivals"] == len(summary.arrivals)
        assert 0.0 < row["late_fraction"] == \
            summary.late_fraction(self.TAU)

    def test_queue_occupancy_sums_the_forward_bottlenecks(
            self, paper_run):
        campaign, _, aggregator, sampler, _ = paper_run
        assert len(sampler.series) == \
            len(campaign.topology.bottlenecks)
        totals = [sum(values) for values in zip(
            *([v for _, v in series]
              for series in sampler.series.values()))]
        assert max(totals) > 0
        expected = LogHistogram()
        expected.record_many(totals)
        assert aggregator.rollup()["hists"]["queue_occupancy"] == \
            expected.to_dict()

    def test_stall_trigger_freezes_the_session_ring(
            self, paper_run, tmp_path):
        _, recorder, aggregator, _, _ = paper_run
        assert aggregator.stall_events > 0
        assert list(recorder.frozen) == [""]
        (path,) = recorder.dump(str(tmp_path))
        assert path.endswith("trigger-stall-session.jsonl")
        assert 0 < validate_jsonl(path) <= 64


class TestAggregatorUnits:
    def test_stall_accounting_freeze_resume(self):
        bus = EventBus()
        meta = SessionMeta(label="s0.", start_at=0.0, mu=1.0,
                           total_packets=4)
        agg = HealthAggregator(bus, [meta], tau=1.0)
        # Deadlines (start + tau + n/mu): 1, 2, 3, 4.  Play head
        # freezes while starved and resumes on arrival.
        agg("client.arrival", 0.5, ("s0.video0", 0))   # early
        agg("client.arrival", 3.0, ("s0.video0", 1))   # stall of 1.0
        agg("client.arrival", 3.5, ("s0.video0", 2))   # buffered
        session = agg.sessions[0]
        assert session.rebuffer_count == 1
        assert session.stall_s == pytest.approx(1.0)
        assert session.startup_delay_s == pytest.approx(0.5)
        # Packets 1 and 2 were late (3.0 > 2, 3.5 > 3) and packet 3
        # never arrived: missing-as-late gives (2 + 1) / 4.
        assert session.late_fraction() == pytest.approx(0.75)

    def test_background_flows_ignored(self):
        bus = EventBus()
        meta = SessionMeta(label="s0.", start_at=0.0, mu=1.0,
                           total_packets=4)
        agg = HealthAggregator(bus, [meta], tau=1.0)
        agg("client.arrival", 0.5, ("ftp.0", 0))
        assert agg.sessions[0].arrivals == 0
