"""Checks of the end-to-end benchmark itself, at tiny sizes.

Not part of the tier-1 suite (which collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import census
import compare
import measure
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: Every workload shrunk to a few seconds, keeping its code path.
TINY = {
    "validation_row": workloads.ValidationRow(duration_s=2.0,
                                              model_horizon_s=1000.0),
    "fig8_column": workloads.Fig8Column(taus=(2.0, 6.0, 10.0),
                                        horizon_s=500.0),
    "campaign_n200": workloads.CampaignN200(
        n_sessions=20, bandwidth_bps=5e6, buffer_pkts=50, duration_s=3.0,
        stagger_s=0.02, drain_s=2.0),
    "tau_requery": workloads.TauRequery(duration_s=2.0,
                                        model_horizon_s=500.0),
}


def test_declared_names_and_limits():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS) \
        == list(TINY)
    assert 2 <= len(names) <= 8
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == measure.E2E_UNITS
    assert layers == measure.LAYER_UNITS
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    for name in names + list(e2e) + list(layers):
        assert NAME.match(name), name
    assert len(set(names) | set(e2e) | set(layers)) \
        == len(names) + len(e2e) + len(layers)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert e2e["setup_s"] == "s"


@pytest.mark.parametrize("name", list(TINY))
def test_e2e_pass_checks_outputs_and_emits_declared_metrics(name):
    result = measure.e2e_pass(TINY[name], seed=0, seconds=0,
                              setup=lambda: [0.5], min_iterations=1)
    assert result.failed == 0, result.errors
    assert list(result.metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result.metrics.values())


@pytest.mark.parametrize("name", list(TINY))
def test_tracing_does_not_perturb_the_run(name):
    workload = TINY[name]
    plain = measure.run_once(workload, 0, 0)
    counts = []
    for _ in range(2):
        with census.LayerTrace() as trace:
            traced = measure.run_once(workload, 0, 0, trace=trace)
        assert traced.outcome.digest == plain.outcome.digest
        counts.append(trace.counts())
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", list(TINY))
def test_layer_pass_emits_declared_metrics(name):
    result = measure.layer_pass(TINY[name], seed=0, seconds=0)
    assert result.failed == 0, result.errors
    assert list(result.metrics) == [m["name"] for m in SPEC["per_layer"]]
    events = result.metrics["sim.engine.events"]["value"]
    assert (events == 0) == (name == "fig8_column")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fig8_column",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"}, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _side(value, spread=0.0):
    return {"value": value, "q1": value * (1 - spread / 2),
            "q3": value * (1 + spread / 2),
            "samples": [value * (1 - spread / 2), value,
                        value * (1 + spread / 2)]}


@pytest.mark.parametrize("parent,change,better,want", [
    (_side(1.0), _side(1.05), "lower", "ok"),
    (_side(1.0), _side(1.2), "lower", "worse"),
    (_side(1.0), _side(0.8), "higher", "worse"),
    (_side(1.0, 0.3), _side(1.0), "lower", "unresolved"),
    (_side(1.0, 0.3), _side(0.5), "lower", "ok"),
])
def test_compare_verdicts(parent, change, better, want):
    assert compare.verdict(parent, change, 0.1, better)[1] == want
