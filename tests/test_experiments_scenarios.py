"""Tests for the config-driven scenario builder."""

import json

import pytest

from repro.experiments.scenarios import (
    ScenarioError,
    build_scenario,
    load_scenario,
    run_scenario,
    validate_scenario,
)

GOOD = {
    "mu": 40,
    "duration_s": 20,
    "seed": 3,
    "taus": [2, 4],
    "paths": [
        {"bandwidth_mbps": 2.0, "delay_ms": 5, "buffer_pkts": 40},
        {"bandwidth_mbps": 2.0, "delay_ms": 5, "buffer_pkts": 40,
         "ftp_flows": 1, "http_flows": 2},
    ],
}


def test_validate_good():
    validate_scenario(GOOD)  # no raise


def test_missing_required_key():
    bad = dict(GOOD)
    del bad["mu"]
    with pytest.raises(ScenarioError, match="mu"):
        validate_scenario(bad)


def test_unknown_key_rejected():
    bad = dict(GOOD, colour="blue")
    with pytest.raises(ScenarioError, match="unknown"):
        validate_scenario(bad)


def test_bad_paths():
    with pytest.raises(ScenarioError):
        validate_scenario(dict(GOOD, paths=[]))
    with pytest.raises(ScenarioError):
        validate_scenario(dict(GOOD, paths=[{"delay_ms": 5}]))
    with pytest.raises(ScenarioError):
        validate_scenario(dict(
            GOOD, paths=[{"bandwidth_mbps": -1}]))
    with pytest.raises(ScenarioError):
        validate_scenario(dict(
            GOOD, paths=[{"bandwidth_mbps": 1, "wings": 2}]))


def test_bad_values():
    with pytest.raises(ScenarioError):
        validate_scenario(dict(GOOD, mu=0))
    with pytest.raises(ScenarioError):
        validate_scenario(dict(GOOD, duration_s=0))
    with pytest.raises(ScenarioError):
        validate_scenario(dict(GOOD, taus=[-1]))


def test_build_scenario_wires_everything():
    session = build_scenario(GOOD)
    assert session.mu == 40
    assert len(session.assemblies[0].connections) == 2
    assert session.scheme == "dmp"


def test_unknown_queue_discipline_rejected():
    with pytest.raises(ScenarioError, match="queue_discipline"):
        validate_scenario(dict(GOOD, queue_discipline="codel"))
    with pytest.raises(ScenarioError, match="queue_discipline"):
        validate_scenario(dict(GOOD, queue_discipline=None))


def test_queue_discipline_reaches_the_bottleneck():
    from repro.sim.queueing import FQPIEQueue, PIEQueue

    session = build_scenario(dict(GOOD, queue_discipline="pie"))
    assert session.queue_discipline == "pie"
    for fwd, rev in session.topology.bottlenecks:
        assert isinstance(fwd.queue, PIEQueue)
        assert isinstance(rev.queue, PIEQueue)
    session = build_scenario(dict(GOOD, queue_discipline="fq-pie"))
    assert isinstance(
        session.topology.bottlenecks[0][0].queue, FQPIEQueue)
    # The default stays the paper's drop-tail.
    session = build_scenario(GOOD)
    assert session.queue_discipline == "droptail"


def test_run_scenario_summary():
    summary = run_scenario(GOOD)
    assert summary["total_packets"] == 800
    assert summary["arrived_packets"] == 800
    assert set(summary["late_fraction"]) == {"2", "4"}
    assert len(summary["flows"]) == 2
    assert sum(summary["path_shares"]) == pytest.approx(1.0)
    # JSON-serialisable end to end.
    json.dumps(summary)


def test_run_scenario_static_scheme():
    scenario = dict(GOOD, scheme="static")
    summary = run_scenario(scenario)
    assert summary["scheme"] == "static"


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(GOOD))
    loaded = load_scenario(str(path))
    assert loaded["mu"] == 40


def test_load_scenario_validates(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mu": 40}))
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


def test_scenario_reproducibility():
    one = run_scenario(GOOD)
    two = run_scenario(GOOD)
    assert one == two


# ---------------------------------------------------------------------
# Mean-field backend scenarios
# ---------------------------------------------------------------------
MEANFIELD = {
    "mu": 10,
    "duration_s": 20,
    "n_sessions": 200,
    "backend": "meanfield",
    "queue_discipline": "red",
    "taus": [2, 6],
    "paths": [
        {"bandwidth_mbps": 18.0, "delay_ms": 40, "buffer_pkts": 400},
        {"bandwidth_mbps": 18.0, "delay_ms": 40, "buffer_pkts": 400},
    ],
}


def test_meanfield_scenario_runs_deterministically():
    summary = run_scenario(MEANFIELD)
    assert summary["backend"] == "meanfield"
    assert summary["n_sessions"] == 200
    assert set(summary["late_fraction"]) == {"2", "6"}
    for population in summary["late_fraction"].values():
        assert 0.0 <= population["mean"] <= 1.0
        assert population["mean"] == population["p99"]  # degenerate
    assert run_scenario(MEANFIELD) == summary  # no RNG


def test_meanfield_scenario_validation():
    for patch, match in (
            ({"backend": "warp"}, "unknown backend"),
            ({"n_sessions": 1}, "population model"),
            ({"queue_discipline": "pie"}, "supports disciplines"),
            ({"churn_rate": 0.5}, "synchronized"),
            ({"scheme": "static"}, "DMP"),
    ):
        with pytest.raises(ScenarioError, match=match):
            validate_scenario(dict(MEANFIELD, **patch))


def test_builders_reject_meanfield_scenarios():
    with pytest.raises(ScenarioError, match="run_scenario"):
        build_scenario(MEANFIELD)
