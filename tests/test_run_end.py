"""Runs end when their sessions are final.

A :class:`~repro.core.campaign.MultiSessionCampaign` run ends at the
first instant every session is final (its client holds the whole video
and every video sender's buffer is empty), not ``drain_s`` after the
last video.  The reference is the full drain: the same run with
:meth:`Simulator.stop` patched to a no-op goes on to ``end_at +
drain_s``, and every session record must come out equal.
"""

import pytest

from repro.core.campaign import MultiSessionCampaign
from repro.experiments.configs import ALL_SETTINGS
from repro.experiments.parallel import simulate_run
from repro.experiments.runner import setting_run_spec
from repro.sim.engine import Simulator
from repro.sim.topology import BottleneckSpec

DURATION_S = 6.0
SEED = 500


@pytest.fixture
def stops(monkeypatch):
    """Count the ``Simulator.stop`` calls, so a stopped run shows that
    the rule fired and the comparison is not between two full
    drains."""
    calls = []
    stop = Simulator.stop

    def counted(sim):
        calls.append(sim.now)
        stop(sim)

    monkeypatch.setattr(Simulator, "stop", counted)
    return calls


@pytest.fixture
def full_drain(monkeypatch):
    """Call ``fn()`` with ``Simulator.stop`` a no-op."""
    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(Simulator, "stop", lambda sim: None)
            return fn()
    return run


@pytest.mark.parametrize("scheme", ["dmp", "static"])
@pytest.mark.parametrize("setting", ["2-2", "1-3", "corr-2"])
def test_simulate_run_records_equal_the_full_drain(setting, scheme,
                                                   stops, full_drain):
    spec = setting_run_spec(ALL_SETTINGS[setting], DURATION_S, SEED,
                            scheme=scheme, send_buffer_pkts=16)
    record = simulate_run(spec)
    assert len(stops) == 1
    assert record == full_drain(lambda: simulate_run(spec))


def paper_run(**options):
    setting = ALL_SETTINGS["2-2"]
    kwargs = dict(mu=setting.mu, duration_s=DURATION_S,
                  paths=setting.path_configs(), seed=SEED)
    kwargs.update(options)
    return MultiSessionCampaign(**kwargs)


@pytest.mark.parametrize("options", [
    dict(scheme="single",
         paths=ALL_SETTINGS["2-2"].path_configs()[:1]),
    dict(tcp_variant="reno"),
    dict(tcp_variant="newreno"),
    dict(tcp_variant="sack"),
    dict(client_buffer_pkts=40, client_tau=2.0),
], ids=["single", "reno", "newreno", "sack", "client-buffer"])
def test_session_summaries_equal_the_full_drain(options, stops,
                                                full_drain):
    campaign = paper_run(**options)
    result = campaign.run()
    (assembly,) = campaign.assemblies
    assert assembly.final
    assert stops == [campaign.sim.now]
    assert campaign.sim.now < assembly.end_at + 60.0

    reference = full_drain(lambda: paper_run(**options).run())
    assert result.sessions == reference.sessions
    assert result.events_processed < reference.events_processed


def fan_in(n_sessions=8):
    """Sessions on one loaded bottleneck and no background traffic,
    with the QoE health layer attached."""
    spec = BottleneckSpec(bandwidth_bps=1.2e6, delay_s=0.02,
                          buffer_pkts=20)
    campaign = MultiSessionCampaign(
        mu=30.0, duration_s=DURATION_S, n_sessions=n_sessions,
        bottleneck=spec, seed=SEED, warmup_s=2.0, stagger_s=0.5)
    health = campaign.attach_health(tau=2.0)
    return campaign.run(), health.rollup()


def test_fan_in_campaign_with_health_equals_the_full_drain(stops,
                                                           full_drain):
    result, rollup = fan_in()
    assert len(stops) == 1
    reference, reference_rollup = full_drain(fan_in)
    assert result.bottleneck_drop_fraction > 0.0
    assert result.sessions == reference.sessions
    assert result.bottleneck_drop_fraction \
        == reference.bottleneck_drop_fraction
    assert rollup == reference_rollup


def test_a_run_that_cannot_complete_runs_its_whole_drain(stops):
    drain_s = 0.05  # shorter than one round trip
    campaign = paper_run()
    result = campaign.run(drain_s=drain_s)
    (assembly,) = campaign.assemblies
    assert not assembly.final
    assert stops == []
    assert campaign.sim.now == assembly.end_at + drain_s
    (session,) = result.sessions
    assert session.received < session.total_packets
