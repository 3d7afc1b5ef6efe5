"""Pins on the mean-field entry points: the spec builder and the CLI.

Both map a fan-in run onto one
:class:`~repro.model.meanfield.MeanFieldSpec` through
:func:`repro.experiments.scenarios.meanfield_spec` (the first path
supplies the bottleneck and FTP load; the path count is
``len(paths)``), so their outputs are pinned here with exact floats.
"""

from repro.experiments.cli import main
from repro.experiments.scenarios import meanfield_spec
from repro.model.meanfield import solve_meanfield
from repro.sim.topology import BottleneckSpec, PathConfig

PATH = PathConfig(bottleneck=BottleneckSpec(
    bandwidth_bps=18e6, delay_s=0.040, buffer_pkts=400), n_ftp=20)


def _degenerate(value):
    return {"mean": value, "min": value, "max": value,
            "p50": value, "p95": value, "p99": value}


EXPECTED_SUMMARY = {
    "mu": 10.0,
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
    spec = meanfield_spec(10.0, 20.0, [PATH, PATH], 200,
                          queue_discipline="red")
    solution = solve_meanfield(spec)
    assert {
        "mu": spec.mu,
        "n_sessions": spec.n_sessions,
        "queue_discipline": spec.queue_discipline,
        "mean_drop_prob": solution.mean_drop_prob,
        "mean_queue_pkts": solution.mean_queue_pkts,
        "late_fraction": {f"{tau:g}": solution.population(tau)
                          for tau in (2.0, 6.0)},
    } == EXPECTED_SUMMARY


def test_cli_meanfield_late_fraction_lines_pinned(capsys):
    assert main(CLI_ARGS) == 0
    out = capsys.readouterr().out.splitlines()
    start = out.index("late fraction (tau: population value — the "
                      "limit distribution is degenerate):")
    assert out[start + 1:start + 5] == [
        "  4s: 0.9920", "  6s: 0.9878", "  8s: 0.9837", "  10s: 0.9793"]
