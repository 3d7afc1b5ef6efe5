"""API-surface tests: the documented entry points exist and compose."""


def test_top_level_exports():
    import repro
    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__


def test_core_exports():
    from repro import core
    for name in core.__all__:
        assert hasattr(core, name), name


def test_model_exports():
    from repro import model
    for name in model.__all__:
        assert hasattr(model, name), name


def test_tcp_exports():
    from repro import tcp
    for name in tcp.__all__:
        assert hasattr(tcp, name), name
    assert set(tcp.SENDER_VARIANTS) == {"reno", "newreno", "sack"}


def test_sim_exports():
    from repro import sim
    for name in sim.__all__:
        assert hasattr(sim, name), name


def test_experiments_exports():
    from repro import experiments
    for name in experiments.__all__:
        assert hasattr(experiments, name), name


def test_readme_quickstart_snippet_runs():
    """The code block in README.md must actually work (abridged)."""
    from repro import BottleneckSpec, MultiSessionCampaign, PathConfig
    from repro.model import DmpModel, FlowParams

    path = PathConfig(
        bottleneck=BottleneckSpec(bandwidth_bps=3.7e6, delay_s=0.001,
                                  buffer_pkts=50),
        n_ftp=2, n_http=5)
    run = MultiSessionCampaign(mu=50, duration_s=15,
                               paths=[path, path], scheme="dmp",
                               seed=7)
    (result,) = run.run().sessions
    assert 0.0 <= result.late_fraction(tau=6.0) <= 1.0
    assert len(result.path_shares) == 2

    flows = [FlowParams(p=max(s["loss_event_estimate"], 1e-4),
                        rtt=s["mean_rtt"],
                        to_ratio=max(s["timeout_ratio"], 1.0),
                        loss_model="sparse")
             for s in result.flow_stats]
    model = DmpModel(flows, mu=50, tau=6.0)
    estimate = model.late_fraction_mc(horizon_s=2000)
    assert 0.0 <= estimate.late_fraction <= 1.0


def test_session_glitches_helper():
    from repro import BottleneckSpec, MultiSessionCampaign, PathConfig
    paths = [PathConfig(bottleneck=BottleneckSpec(
        bandwidth_bps=2e6, delay_s=0.005, buffer_pkts=40))] * 2
    (result,) = MultiSessionCampaign(mu=40, duration_s=10, paths=paths,
                                     seed=1).run().sessions
    stats = result.glitches(tau=2.0)
    assert stats.glitch_count == 0
    assert stats.late_packets == 0


def test_internet_path_generators_in_spec():
    import random
    from repro.experiments.internet import _hefei_path, _sf_adsl_path
    rng = random.Random(1)
    for _ in range(50):
        sf = _sf_adsl_path(rng)
        assert 1.5e6 <= sf.bottleneck.bandwidth_bps <= 2.5e6
        assert 0.025 <= sf.bottleneck.delay_s <= 0.045
        assert 1 <= sf.n_ftp <= 3
        hefei = _hefei_path(rng)
        assert 2.5e6 <= hefei.bottleneck.bandwidth_bps <= 3.5e6
        assert 0.110 <= hefei.bottleneck.delay_s <= 0.140
