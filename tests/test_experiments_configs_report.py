"""Tests for experiment configs and report rendering."""

import os

import pytest

from repro.experiments.configs import (
    ALL_SETTINGS,
    CALIBRATED_CONFIGS,
    CORRELATED_SETTINGS,
    HETEROGENEOUS_SETTINGS,
    HOMOGENEOUS_SETTINGS,
    PAPER_TABLE1,
)
from repro.experiments.report import render_series, render_table, save_output


def test_paper_table1_matches_publication():
    config = PAPER_TABLE1[1]
    assert (config.ftp_flows, config.http_flows) == (9, 40)
    assert config.delay_ms == 40
    assert config.bandwidth_mbps == 3.7
    assert config.buffer_pkts == 50
    assert PAPER_TABLE1[4].buffer_pkts == 30
    assert PAPER_TABLE1[3].ftp_flows == 19


def test_calibrated_keeps_structure():
    for idx in (1, 2, 3, 4):
        paper = PAPER_TABLE1[idx]
        ours = CALIBRATED_CONFIGS[idx]
        assert ours.bandwidth_mbps == paper.bandwidth_mbps
        assert ours.delay_ms == paper.delay_ms
        assert ours.buffer_pkts == paper.buffer_pkts
        assert ours.http_flows == paper.http_flows
        assert ours.ftp_flows <= paper.ftp_flows


def test_spec_conversion():
    spec = PAPER_TABLE1[2].spec
    assert spec.bandwidth_bps == pytest.approx(3.7e6)
    assert spec.delay_s == pytest.approx(0.001)
    assert spec.buffer_pkts == 50


def test_settings_mu_from_table2():
    assert HOMOGENEOUS_SETTINGS["2-2"].mu == 50
    assert HOMOGENEOUS_SETTINGS["3-3"].mu == 30
    assert HOMOGENEOUS_SETTINGS["4-4"].mu == 80
    assert HETEROGENEOUS_SETTINGS["1-3"].mu == 40
    assert HETEROGENEOUS_SETTINGS["3-4"].mu == 60


def test_correlated_settings_shared():
    for setting in CORRELATED_SETTINGS.values():
        assert setting.shared_bottleneck
        assert len(setting.configs) == 2


def test_path_configs_resolve():
    setting = HETEROGENEOUS_SETTINGS["1-2"]
    paths = setting.path_configs()
    assert len(paths) == 2
    assert paths[0].bottleneck.delay_s == pytest.approx(0.040)
    assert paths[1].bottleneck.delay_s == pytest.approx(0.001)


def test_all_settings_unique_names():
    assert len(ALL_SETTINGS) == 12


def test_render_table_alignment():
    text = render_table(["name", "value"],
                        [["a", 1.0], ["bbbb", 0.00012]],
                        title="Demo")
    lines = text.splitlines()
    assert lines[0] == "Demo"
    assert "name" in lines[2]
    assert "1.20e-04" in text


def test_render_table_none_as_dash():
    text = render_table(["x"], [[None]])
    assert "-" in text


def test_render_series():
    text = render_series("curves", {"a": [(1, 0.5), (2, 0.25)]},
                         x_label="tau", y_label="f")
    assert "curves" in text
    assert "tau" in text
    assert "0.25" in text


def test_save_output(tmp_path):
    path = save_output(str(tmp_path), "demo.txt", "hello\n")
    assert os.path.exists(path)
    with open(path) as handle:
        assert handle.read() == "hello\n"
