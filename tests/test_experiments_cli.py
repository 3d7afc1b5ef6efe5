"""Tests for the figure builders and the CLI runner."""

import pytest

from repro.experiments import cli
from repro.experiments.figures import BUILDERS, build_sec73


def test_builders_cover_every_table_and_figure():
    expected = {"table1", "table2", "table3", "fig4", "fig5", "fig7",
                "fig8", "fig9", "fig10", "fig11", "sec73", "sec73_sim",
                "ablation_queue", "ablation_sendbuf",
                "ablation_lossmodel", "ablation_tcp_variant",
                "ablation_kpaths", "receiver_buffer",
                "transient_validation"}
    assert set(BUILDERS) == expected


def test_sec73_builder_output():
    text = build_sec73(mu=10.0)
    assert "Sec 7.3 fluid comparison, tau=5s" in text
    assert "Sec 7.3 fluid comparison, tau=4s" in text
    assert "DMP <= single-path for all x: True" in text


def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig8" in out
    assert "table2" in out


def test_cli_runs_builder_and_saves(tmp_path, capsys):
    from repro.experiments.cache import CODE_VERSION

    assert cli.main(["sec73", "--scale", "quick", "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Sec 7.3" in out
    # One stable header line, then exactly the builder's text.
    saved = (tmp_path / "sec73.txt").read_text()
    header, body = saved.split("\n", 1)
    assert header == f"# sec73 profile=quick CODE_VERSION={CODE_VERSION}"
    assert body == build_sec73()


def test_cli_rejects_unknown_target():
    with pytest.raises(SystemExit):
        cli.main(["fig99"])


def test_cli_scale_flag(tmp_path, capsys):
    # 'quick' is valid; an invalid profile is rejected by argparse.
    assert cli.main(["sec73", "--scale", "quick"]) == 0
    with pytest.raises(SystemExit):
        cli.main(["sec73", "--scale", "enormous"])


def test_cli_workers_and_cache_flags(tmp_path, capsys):
    from repro.experiments import cache as result_cache
    from repro.experiments import parallel

    assert cli.main(["sec73", "--workers", "2", "--no-cache",
                     "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    # The CLI's configuration must not leak into the process defaults.
    assert parallel._default["max_workers"] is None
    assert result_cache._default["enabled"] is None
    with pytest.raises(SystemExit):
        cli.main(["sec73", "--workers", "0"])


def test_cli_queue_discipline_round_trip(capsys):
    """--queue-discipline reaches the session and echoes back."""
    assert cli.main(["trace", "--setting", "2-2", "--seed", "2",
                     "--duration", "2",
                     "--queue-discipline", "pie"]) == 0
    out = capsys.readouterr().out
    assert "queue=pie" in out
    # Default remains drop-tail; unknown disciplines die in argparse.
    assert cli.main(["trace", "--setting", "2-2", "--seed", "2",
                     "--duration", "2"]) == 0
    assert "queue=droptail" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli.main(["trace", "--queue-discipline", "codel"])


def test_cli_reports_cache_stats(tmp_path, capsys):
    assert cli.main(["sec73", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "cache: 0 hits / 0 misses" in out  # sec73 never simulates


# ------------------------------------------------------------------
# verify target
# ------------------------------------------------------------------
_VERIFY_FAST = ["verify", "--engine", "exhaustive", "--mu-round", "2",
                "--tau", "2", "--rounds", "8"]


def test_cli_list_includes_verify(capsys):
    assert cli.main(["list"]) == 0
    assert "verify" in capsys.readouterr().out.split()


def test_cli_verify_envelope_and_cex_out(tmp_path, capsys):
    cex = tmp_path / "cex.jsonl"
    assert cli.main(_VERIFY_FAST + ["--cex-out", str(cex)]) == 0
    out = capsys.readouterr().out
    assert "verify[exhaustive]" in out
    assert "certified max late" in out
    assert "UNSAT certificate" in out
    assert "adversarial witness trace:" in out
    # The emitted counterexample re-verifies: load replays the
    # adversary choices and cross-checks every recorded round.
    from repro.verify import load_trace_jsonl
    with open(cex, encoding="utf-8") as handle:
        trace = load_trace_jsonl(handle)
    assert trace.rounds[-1].t == 7


def test_cli_verify_compare_and_starve(capsys):
    assert cli.main(_VERIFY_FAST + ["--query", "compare"]) == 0
    out = capsys.readouterr().out
    assert "dmp: certified max late" in out
    assert "static: certified max late" in out
    assert "advantage" in out
    assert cli.main(_VERIFY_FAST + ["--query", "starve"]) == 0
    assert "starve for at most" in capsys.readouterr().out


def test_cli_verify_cache_round_trip(tmp_path, capsys):
    argv = _VERIFY_FAST + ["--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert ", cached" in capsys.readouterr().out


def test_cli_verify_rejects_bad_geometry():
    with pytest.raises(SystemExit):
        cli.main(["verify", "--rounds", "4", "--tau", "6"])
    with pytest.raises(SystemExit):
        cli.main(["verify", "--paths", "0"])
    with pytest.raises(SystemExit):
        cli.main(["verify", "--engine", "quantum"])


def test_cli_verify_missing_dependency_exit_code(capsys, monkeypatch):
    """The shared optional-dependency error path: exit code 3, the
    error on stderr and a pip-install hint — without z3 installed."""
    import repro.verify.queries as queries
    from repro.experiments.optional_deps import (
        EXIT_MISSING_DEPENDENCY, MissingDependencyError)

    def _absent():
        raise MissingDependencyError("z3", extra="verify",
                                     package="z3-solver")

    monkeypatch.setattr(queries, "z3_module", _absent)
    rc = cli.main(_VERIFY_FAST[:1] + ["--engine", "z3"])
    assert rc == EXIT_MISSING_DEPENDENCY == 3
    err = capsys.readouterr().err
    assert "error:" in err
    assert 'pip install "repro[verify]"' in err
