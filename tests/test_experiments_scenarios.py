"""Tests for the two run builders: ``build_run`` and ``meanfield_spec``."""

import pytest

from repro.experiments.scenarios import build_run, meanfield_spec
from repro.model.meanfield import solve_meanfield
from repro.sim.topology import BottleneckSpec, PathConfig

MU, DURATION_S, SEED = 40, 20, 3
PATHS = [
    PathConfig(bottleneck=BottleneckSpec(
        bandwidth_bps=2e6, delay_s=0.005, buffer_pkts=40)),
    PathConfig(bottleneck=BottleneckSpec(
        bandwidth_bps=2e6, delay_s=0.005, buffer_pkts=40),
        n_ftp=1, n_http=2),
]


def good_run(**options):
    return build_run(MU, DURATION_S, PATHS, seed=SEED, **options)


def test_unknown_key_rejected():
    with pytest.raises(TypeError, match="colour"):
        good_run(colour="blue")


def test_bad_paths():
    with pytest.raises(ValueError, match="path"):
        build_run(MU, DURATION_S, [])


def test_bad_values():
    with pytest.raises(ValueError):
        build_run(0, DURATION_S, PATHS)
    with pytest.raises(ValueError):
        build_run(MU, 0, PATHS)


def test_build_run_wires_everything():
    session = good_run()
    assert session.mu == 40
    assert len(session.assemblies[0].connections) == 2
    assert session.scheme == "dmp"


def test_unknown_queue_discipline_rejected():
    with pytest.raises(ValueError, match="queue discipline"):
        good_run(queue_discipline="codel")
    with pytest.raises(ValueError, match="queue discipline"):
        good_run(queue_discipline=None)


def test_queue_discipline_reaches_the_bottleneck():
    from repro.sim.queueing import FQPIEQueue, PIEQueue

    session = good_run(queue_discipline="pie")
    assert session.queue_discipline == "pie"
    for fwd, rev in session.topology.bottlenecks:
        assert isinstance(fwd.queue, PIEQueue)
        assert isinstance(rev.queue, PIEQueue)
    session = good_run(queue_discipline="fq-pie")
    assert isinstance(
        session.topology.bottlenecks[0][0].queue, FQPIEQueue)
    # The default stays the paper's drop-tail.
    session = good_run()
    assert session.queue_discipline == "droptail"


def test_build_run_session_summary():
    (session,) = good_run().run().sessions
    assert session.total_packets == 800
    assert len(session.arrivals) == 800
    assert len(session.flow_stats) == 2
    assert sum(session.path_shares) == pytest.approx(1.0)
    assert 0.0 <= session.metrics(2.0).late_fraction <= 1.0


def test_build_run_static_scheme():
    assert good_run(scheme="static").run().scheme == "static"


def test_scenario_reproducibility():
    (one,) = good_run().run().sessions
    (two,) = good_run().run().sessions
    assert one.arrivals == two.arrivals
    assert one.flow_stats == two.flow_stats


# ---------------------------------------------------------------------
# Mean-field specs
# ---------------------------------------------------------------------
MEANFIELD_PATHS = [PathConfig(bottleneck=BottleneckSpec(
    bandwidth_bps=18e6, delay_s=0.040, buffer_pkts=400))] * 2


def red_spec(**options):
    return meanfield_spec(10.0, 20.0, MEANFIELD_PATHS, 200,
                          queue_discipline="red", **options)


def test_meanfield_scenario_runs_deterministically():
    solution = solve_meanfield(red_spec())
    for tau in (2.0, 6.0):
        population = solution.population(tau)
        assert 0.0 <= population["mean"] <= 1.0
        assert population["mean"] == population["p99"]  # degenerate
    assert solve_meanfield(red_spec()).population(6.0) == \
        solution.population(6.0)  # no RNG


def test_meanfield_scenario_validation():
    with pytest.raises(ValueError, match="population model"):
        meanfield_spec(10.0, 20.0, MEANFIELD_PATHS, 1)
    with pytest.raises(ValueError, match="supports disciplines"):
        meanfield_spec(10.0, 20.0, MEANFIELD_PATHS, 200,
                       queue_discipline="pie")
    with pytest.raises(ValueError, match="synchronized"):
        red_spec(churn_rate=0.5)
    with pytest.raises(ValueError, match="DMP"):
        red_spec(scheme="static")
