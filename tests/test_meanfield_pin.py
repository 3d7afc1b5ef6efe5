"""Pins on the two mean-field entry points: the JSON scenario and the CLI.

Both entry points map a fan-in run onto one
:class:`~repro.model.meanfield.MeanFieldSpec` (the first path supplies
the bottleneck and FTP load; the path count is ``len(paths)``), so
their outputs are pinned here with exact floats, and the specs they
hand to the solver are checked equal on the Setting 2-2 paths.
"""

from repro.experiments import scenarios
from repro.experiments.cli import main
from repro.experiments.configs import CALIBRATED_CONFIGS
from repro.experiments.scenarios import run_scenario
from repro.model import meanfield

SCENARIO = {
    "name": "mf-pin",
    "mu": 10,
    "duration_s": 20,
    "n_sessions": 200,
    "backend": "meanfield",
    "queue_discipline": "red",
    "taus": [2, 6],
    "paths": [{"bandwidth_mbps": 18.0, "delay_ms": 40,
               "buffer_pkts": 400, "ftp_flows": 20}] * 2,
}


def _degenerate(value):
    return {"mean": value, "min": value, "max": value,
            "p50": value, "p95": value, "p99": value}


EXPECTED_SUMMARY = {
    "name": "mf-pin",
    "mu": 10.0,
    "scheme": "dmp",
    "backend": "meanfield",
    "n_sessions": 200,
    "queue_discipline": "red",
    "mean_drop_prob": 0.12068132033716125,
    "mean_queue_pkts": 195.93123126127102,
    "late_fraction": {"2": _degenerate(0.8145),
                      "6": _degenerate(0.3975)},
}

CLI_ARGS = ["campaign", "--backend", "meanfield", "--sessions", "100",
            "--duration", "30"]


def test_meanfield_scenario_summary_pinned():
    assert run_scenario(SCENARIO) == EXPECTED_SUMMARY


def test_cli_meanfield_late_fraction_lines_pinned(capsys):
    assert main(CLI_ARGS) == 0
    out = capsys.readouterr().out.splitlines()
    start = out.index("late fraction (tau: population value — the "
                      "limit distribution is degenerate):")
    assert out[start + 1:start + 5] == [
        "  4s: 0.9920", "  6s: 0.9878", "  8s: 0.9837", "  10s: 0.9793"]


def test_cli_and_scenario_build_equal_specs(monkeypatch, capsys):
    """The CLI's ``--setting 2-2`` and a scenario over the same two
    calibrated config-2 paths hand the solver equal specs."""
    specs = []
    solve = meanfield.solve_meanfield

    def spy(spec):
        specs.append(spec)
        return solve(spec)

    monkeypatch.setattr(meanfield, "solve_meanfield", spy)
    monkeypatch.setattr(scenarios, "solve_meanfield", spy)
    assert main(CLI_ARGS) == 0
    config = CALIBRATED_CONFIGS[2]
    path = {"bandwidth_mbps": config.bandwidth_mbps,
            "delay_ms": config.delay_ms,
            "buffer_pkts": config.buffer_pkts,
            "ftp_flows": config.ftp_flows,
            "http_flows": config.http_flows}
    run_scenario({"mu": 50, "duration_s": 30, "n_sessions": 100,
                  "backend": "meanfield", "paths": [path, path]})
    cli_spec, scenario_spec = specs
    assert cli_spec == scenario_spec
    assert cli_spec.paths_per_session == 2
    assert cli_spec.n_background == config.ftp_flows
