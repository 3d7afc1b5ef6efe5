"""Multi-session campaigns: pool, link service, fan-in, population.

Covers the campaign stack end to end: packet-pool recycling semantics,
FIFO bottleneck service, the fan-in topology under every queue
discipline, population metrics, the experiments-layer plumb-through
(run records, the run builder, CLI, the mean-field spec builder) and the
hypothesis-backed invariants — packet conservation across sessions,
per-(session, path) FIFO delivery, and bit-identical seeded reruns.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import (CampaignResult, MultiSessionCampaign,
                                 SessionSummary)
from repro.core.metrics import quantile
from repro.experiments.configs import ALL_SETTINGS
from repro.experiments.runner import setting_run_spec
from repro.experiments.scenarios import build_run, meanfield_spec
from repro.sim.pool import PacketPool
from repro.sim.queueing import QUEUE_DISCIPLINES
from repro.sim.topology import BottleneckSpec, PathConfig

SPEC = BottleneckSpec(bandwidth_bps=8e6, delay_s=0.01,
                      buffer_pkts=80)


def small_campaign(**overrides):
    kwargs = dict(mu=20.0, duration_s=8.0, n_sessions=4,
                  bottleneck=SPEC, seed=11, warmup_s=5.0)
    kwargs.update(overrides)
    return MultiSessionCampaign(**kwargs)


# ---------------------------------------------------------------------
# Packet pool
# ---------------------------------------------------------------------
class TestPacketPool:
    def test_recycles_released_packets(self):
        pool = PacketPool()
        first = pool.acquire(src="a", dst="b", sport=1, dport=2,
                             size=100)
        pool.release(first)
        second = pool.acquire(src="c", dst="d", sport=3, dport=4,
                              size=200)
        assert second is first
        assert pool.recycled == 1
        assert second.src == "c" and second.size == 200

    def test_fresh_uid_per_acquire(self):
        pool = PacketPool()
        packet = pool.acquire(src="a", dst="b", sport=1, dport=2,
                              size=100)
        uid = packet.uid
        pool.release(packet)
        again = pool.acquire(src="a", dst="b", sport=1, dport=2,
                             size=100)
        assert again.uid != uid

    def test_double_release_raises(self):
        pool = PacketPool()
        packet = pool.acquire(src="a", dst="b", sport=1, dport=2,
                              size=100)
        pool.release(packet)
        with pytest.raises(RuntimeError):
            pool.release(packet)

    def test_release_clears_payload_and_flags(self):
        pool = PacketPool()
        packet = pool.acquire(src="a", dst="b", sport=1, dport=2,
                              size=40, flags=("ACK",),
                              payload=("data",))
        assert packet.is_ack
        pool.release(packet)
        clean = pool.acquire(src="a", dst="b", sport=1, dport=2,
                             size=40)
        assert clean.payload is None
        assert not clean.is_ack

    def test_prealloc_counts_as_allocated(self):
        pool = PacketPool(prealloc=16)
        assert pool.allocated == 16
        assert pool.free == 16


# ---------------------------------------------------------------------
# Link service with the packet pool
# ---------------------------------------------------------------------
class TestBatchedService:
    @staticmethod
    def _run_session(pooled=False, **session_kwargs):
        session = MultiSessionCampaign(
            mu=20, duration_s=10.0,
            paths=ALL_SETTINGS["2-2"].path_configs(),
            seed=5, **session_kwargs)
        session.sim.pool = PacketPool() if pooled else None
        (result,) = session.run().sessions
        return session, result

    def test_pooled_session_delivers_everything(self):
        session, result = self._run_session(pooled=True)
        assert len(result.arrivals) == result.total_packets
        pool = session.sim.pool
        assert pool.acquired > 0
        # Conservation: whatever is not back in the free list is still
        # in flight (queued or scheduled) at the horizon — nothing
        # leaks, nothing is double-counted.
        assert pool.acquired - pool.released == \
            pool.allocated - pool.free
        # The run is long enough that recycling dominates allocation.
        assert pool.recycled > 100 * pool.allocated

    def test_pooled_matches_unpooled_arrivals(self):
        _, plain = self._run_session()
        _, pooled = self._run_session(pooled=True)
        assert plain.arrivals == pooled.arrivals
        assert plain.flow_stats == pooled.flow_stats

    def test_batch_service_conserves_and_orders(self):
        campaign = small_campaign()
        deliveries = []
        link_name = campaign.topology.bottleneck_fwd.name

        def sink(topic, time, values):
            if values[0] == link_name:
                deliveries.append((time, values[1].uid))
        sink.patterns = ("link.recv",)
        campaign.bus.attach(sink)
        result = campaign.run()
        # FIFO through the bottleneck: delivery times never decrease.
        times = [t for t, _ in deliveries]
        assert times == sorted(times)
        total = sum(s.total_packets for s in result.sessions)
        assert sum(s.received for s in result.sessions) == total


# ---------------------------------------------------------------------
# Fan-in topology + campaign runs
# ---------------------------------------------------------------------
class TestCampaign:
    @pytest.mark.parametrize("discipline", QUEUE_DISCIPLINES)
    def test_every_discipline_completes(self, discipline):
        result = small_campaign(
            queue_discipline=discipline, n_sessions=3).run()
        assert result.queue_discipline == discipline
        for summary in result.sessions:
            assert summary.received == summary.total_packets

    def test_session_done_probe_fires_once_per_session(self):
        campaign = small_campaign(n_sessions=5)
        done = []

        def sink(topic, time, values):
            done.append(values)
        sink.patterns = ("campaign.session_done",)
        campaign.bus.attach(sink)
        campaign.run()
        assert len(done) == 5
        assert sorted(label for label, _, _ in done) == \
            sorted(a.label for a in campaign.assemblies)

    def test_churn_start_times_are_seeded(self):
        first = small_campaign(churn_rate=1.0, seed=3)
        second = small_campaign(churn_rate=1.0, seed=3)
        other = small_campaign(churn_rate=1.0, seed=4)
        assert first.start_times == second.start_times
        assert first.start_times != other.start_times
        assert all(t >= first.warmup_s for t in first.start_times)

    def test_population_quantiles(self):
        result = small_campaign(n_sessions=6).run()
        pop = result.population(0.0)
        fractions = result.late_fractions(0.0)
        assert pop["p50"] == quantile(fractions, 0.5)
        assert pop["min"] <= pop["p50"] <= pop["p95"] \
            <= pop["p99"] <= pop["max"]

    @staticmethod
    def _population(missing_counts, total=20):
        """A 1-pkt/s result whose session i misses
        ``missing_counts[i]`` of ``total`` packets (so is late on
        exactly those), the rest arriving at t = 0."""
        sessions = [SessionSummary(
            index=i, label=f"s{i}.", start_at=0.0, mu=1.0,
            total_packets=total, received=total - missing,
            arrivals=[(n, 0.0) for n in range(total - missing)],
            flow_stats=[], path_shares=[])
            for i, missing in enumerate(missing_counts)]
        return CampaignResult(
            n_sessions=len(sessions), mu=1.0, duration_s=float(total),
            scheme="dmp", queue_discipline="droptail",
            sessions=sessions, bottleneck_drop_fraction=0.0,
            events_processed=0)

    def test_population_percentiles_are_exact_at_any_size(self):
        # 200 equal sessions: every percentile is the common value,
        # never a histogram bucket floor below it.
        pop = self._population([1] * 200).population(1.0)
        assert pop["min"] == pop["max"] == 0.05
        assert pop["p50"] == pop["p95"] == pop["p99"] == pop["min"]
        for counts in ([(7 * i) % 20 for i in range(200)],
                       [3] * 150 + [4] * 50):
            result = self._population(counts)
            pop = result.population(1.0)
            fractions = result.late_fractions(1.0)
            for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
                assert pop[name] == quantile(fractions, q)
                assert pop["min"] <= pop[name] <= pop["max"]

    def test_session_labels_prefix_probe_paths(self):
        campaign = small_campaign(n_sessions=2)
        paths = set()

        def sink(topic, time, values):
            paths.add(values[0])
        sink.patterns = ("client.arrival",)
        campaign.bus.attach(sink)
        campaign.run()
        assert {"s0.path1", "s0.path2", "s1.path1",
                "s1.path2"} == paths

    def test_validation(self):
        with pytest.raises(ValueError):
            small_campaign(n_sessions=0)
        with pytest.raises(ValueError):
            small_campaign(churn_rate=-1.0)
        with pytest.raises(ValueError):
            small_campaign(queue_discipline="nope")


# ---------------------------------------------------------------------
# Experiments-layer plumb-through
# ---------------------------------------------------------------------
class TestExperiments:
    def test_cache_requires_sessions_coverage(self, tmp_path):
        """A run record holds exactly one session's arrivals."""
        from repro.experiments.cache import ResultCache
        cache = ResultCache(str(tmp_path))
        spec = setting_run_spec(ALL_SETTINGS["2-2"], 5.0, 1,
                                scheme="dmp", send_buffer_pkts=16)
        session = {"total_packets": 3, "arrivals": [[0, 0.5]]}
        record = {"flow_stats": []}
        cache.put_run(spec, record)
        # No per-session arrivals -> miss.
        assert cache.get_run(spec) is None
        # More than one session (a fan-in campaign's shape) -> miss.
        cache.put_run(spec, dict(record, sessions=[session] * 3))
        assert cache.get_run(spec) is None
        cache.put_run(spec, dict(record, sessions=[session]))
        assert cache.get_run(spec)["sessions"] == [session]


class TestScenarios:
    PATHS = [PathConfig(bottleneck=BottleneckSpec(
        bandwidth_bps=8e6, delay_s=0.010, buffer_pkts=80))] * 2

    def test_build_run_fans_in_and_single_is_paper_topology(self):
        campaign = build_run(15, 6, self.PATHS, n_sessions=3, seed=4,
                             churn_rate=0.5, queue_discipline="red")
        assert campaign.n_sessions == 3
        assert campaign.queue_discipline == "red"
        # One session is the paper topology, not a 1-member fan-in.
        single = build_run(15, 6, self.PATHS, seed=4,
                           queue_discipline="red")
        assert single.n_sessions == 1
        assert [a.label for a in single.assemblies] == [""]
        assert len(single.topology.bottlenecks) == 2


class TestCli:
    def test_campaign_target(self, capsys):
        from repro.experiments.cli import main
        code = main(["campaign", "--sessions", "3", "--duration", "6",
                     "--seed", "2", "--queue-discipline", "red"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sessions=3" in out
        assert "campaign.session_done" in out

    def test_campaign_target_validation(self):
        from repro.experiments.cli import main
        with pytest.raises(SystemExit):
            main(["campaign", "--sessions", "0"])

    def test_meanfield_campaign_rejects_static_scheme(self, capsys):
        """The ODE models DMP only: ``--scheme static`` is a usage
        error, never a silent DMP solve."""
        from repro.experiments.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--backend", "meanfield", "--sessions",
                  "100", "--scheme", "static"])
        assert exc.value.code == 2
        assert "DMP" in capsys.readouterr().err


# ---------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------
@settings(max_examples=5, deadline=None)
@given(n_sessions=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=999),
       churn=st.sampled_from([0.0, 0.8]))
def test_packet_conservation_across_sessions(n_sessions, seed, churn):
    """No session ever receives more (or other) packets than it
    generated, duplicates included, regardless of churn or N."""
    campaign = small_campaign(n_sessions=n_sessions, seed=seed,
                              churn_rate=churn, duration_s=5.0)
    result = campaign.run()
    for summary in result.sessions:
        numbers = [number for number, _ in summary.arrivals]
        assert len(numbers) == len(set(numbers))
        assert len(numbers) <= summary.total_packets
        assert all(0 <= n < summary.total_packets for n in numbers)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_per_session_path_fifo(seed):
    """Each (session, path) delivers packet numbers in increasing
    order: TCP delivers in order and the streamer assigns per path in
    increasing number order, so any inversion is a wiring bug."""
    campaign = small_campaign(n_sessions=3, seed=seed,
                              duration_s=5.0)
    last_seen = {}

    def sink(topic, time, values):
        path, number = values
        assert number > last_seen.get(path, -1)
        last_seen[path] = number
    sink.patterns = ("client.arrival",)
    campaign.bus.attach(sink)
    campaign.run()
    assert last_seen  # the probe actually fired


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_seeded_churn_campaign_is_bit_identical(seed):
    def run():
        result = build_run(15.0, 5.0, ALL_SETTINGS["2-2"].path_configs(),
                           n_sessions=3, churn_rate=0.6,
                           seed=seed).run()
        return [(s.start_at, s.arrivals, s.flow_stats)
                for s in result.sessions]
    assert run() == run()


# ---------------------------------------------------------------------
# Mean-field spec builder and its guards
# ---------------------------------------------------------------------
class TestMeanfieldBackendDispatch:
    PATHS = ALL_SETTINGS["2-2"].path_configs()

    def test_meanfield_spec_maps_the_fan_in(self):
        """The first path supplies the bottleneck and FTP load; the
        path count is ``len(paths)``."""
        paths = ALL_SETTINGS["1-2"].path_configs() \
            + ALL_SETTINGS["3-3"].path_configs()[:1]
        spec = meanfield_spec(40.0, 20.0, paths, 50)
        first = paths[0]
        assert spec.bandwidth_pps == \
            first.bottleneck.bandwidth_bps / (8.0 * 1500)
        assert spec.buffer_pkts == first.bottleneck.buffer_pkts
        assert spec.n_background == first.n_ftp
        assert spec.paths_per_session == 3
        assert (spec.n_sessions, spec.mu, spec.duration_s) \
            == (50, 40.0, 20.0)

    def test_meanfield_rejects_unsupported_axes(self):
        meanfield_spec(50.0, 20.0, self.PATHS, 100)
        for overrides in ({"churn_rate": 0.5},
                          {"queue_discipline": "pie"}):
            with pytest.raises(ValueError):
                meanfield_spec(50.0, 20.0, self.PATHS, 100,
                               **overrides)
        with pytest.raises(ValueError, match="population model"):
            meanfield_spec(50.0, 20.0, self.PATHS, 1)
        with pytest.raises(ValueError, match="DMP"):
            meanfield_spec(50.0, 20.0, self.PATHS, 100,
                           scheme="static")
