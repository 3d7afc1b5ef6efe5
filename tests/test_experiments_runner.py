"""Tests for the replicated runner and the internet-experiment harness."""

import pytest

from repro.experiments.configs import Setting
from repro.experiments.internet import (
    run_internet_experiments,
    scatter_points,
    within_tenfold_fraction,
)
from repro.experiments.runner import (
    ReplicatedRun,
    ScaleProfile,
    _mean_ci95,
    run_setting,
    scale_profile,
)

TINY = ScaleProfile("tiny", runs=2, duration_s=80.0,
                    model_horizon_s=3000.0)


def test_scale_profile_lookup(monkeypatch):
    assert scale_profile("quick").runs == 3
    assert scale_profile("paper").duration_s == 10000.0
    monkeypatch.setenv("REPRO_SCALE", "full")
    assert scale_profile().name == "full"
    with pytest.raises(ValueError):
        scale_profile("bogus")


@pytest.mark.parametrize("bad", [
    dict(runs=0), dict(runs=-1), dict(duration_s=0.0),
    dict(duration_s=-5.0), dict(duration_s=float("inf")),
    dict(model_horizon_s=-1.0), dict(model_horizon_s=float("nan")),
])
def test_scale_profile_rejects_bad_sizes(bad):
    fields = dict(name="bad", runs=2, duration_s=10.0,
                  model_horizon_s=100.0)
    with pytest.raises(ValueError, match="bad scale profile"):
        ScaleProfile(**dict(fields, **bad))


@pytest.mark.parametrize("tau", [-1.0, float("nan"), float("inf")])
def test_run_setting_rejects_bad_taus(tau):
    setting = Setting("2-2", (2, 2), mu=50)
    with pytest.raises(ValueError, match="startup delays"):
        run_setting(setting, taus=(2.0, tau), profile=TINY, cache=False)


def test_mean_ci95():
    mean, ci = _mean_ci95([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert ci > 0
    mean_single, ci_single = _mean_ci95([5.0])
    assert mean_single == 5.0
    assert ci_single == float("inf")


def test_t_quantiles_pinned():
    """97.5% Student-t quantiles at tabulated and interpolated dof.

    dof=11 is the regression case: the old fallback returned the next
    tabulated entry (2.14, i.e. dof=14's value) instead of 2.201,
    understating every intermediate-dof confidence interval.
    """
    from repro.experiments.runner import _t_ci95
    assert _t_ci95(1) == pytest.approx(12.706)
    assert _t_ci95(11) == pytest.approx(2.201)
    # Interpolated in 1/dof between dof=25 and dof=30.
    assert _t_ci95(29) == pytest.approx(2.045, abs=2e-3)
    # Interpolated between dof=60 and dof=120; scipy gives 1.984.
    assert _t_ci95(100) == pytest.approx(1.984, abs=2e-3)
    # Beyond the table: between the last entry and the normal anchor.
    assert 1.96 < _t_ci95(1000) < 1.98
    # Monotone decreasing toward 1.96.
    values = [_t_ci95(d) for d in range(1, 200)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] > 1.96
    with pytest.raises(ValueError):
        _t_ci95(0)


def test_run_setting_end_to_end():
    setting = Setting("4-4", (4, 4), mu=80)
    run = run_setting(setting, taus=(2.0, 6.0), profile=TINY,
                      seed0=7)
    assert isinstance(run, ReplicatedRun)
    assert len(run.points) == 2
    assert len(run.flow_params) == 2
    for point in run.points:
        assert 0.0 <= point.sim_mean <= 1.0
        assert 0.0 <= point.model_f <= 1.0
    # Late fraction decreases (weakly) with tau in both sim and model.
    assert run.point(6.0).sim_mean <= run.point(2.0).sim_mean + 0.05
    # Measured parameters are in a physical range.
    for m in run.measured:
        assert 0 <= m["p"] < 0.3
        assert 0.0 < m["rtt"] < 1.0


def test_run_setting_without_model():
    setting = Setting("4-4", (4, 4), mu=80)
    run = run_setting(setting, taus=(2.0,), profile=TINY, seed0=3,
                      run_model=False)
    import math
    assert math.isnan(run.points[0].model_f)


def test_run_setting_correlated():
    setting = Setting("4", (4, 4), mu=80, shared_bottleneck=True)
    run = run_setting(setting, taus=(2.0,), profile=TINY, seed0=5,
                      run_model=False)
    # Correlated paths: the two flows see similar conditions.
    p1, p2 = run.measured[0], run.measured[1]
    assert p1["rtt"] == pytest.approx(p2["rtt"], rel=0.5)


def test_tau_point_match_rules():
    from repro.experiments.runner import TauPoint
    exact = TauPoint(tau=4, sim_mean=0.01, sim_ci95=0.005,
                     sim_arrival_order_mean=0.01, model_f=0.012,
                     model_stderr=0.0)
    assert exact.match
    tenfold = TauPoint(tau=4, sim_mean=0.01, sim_ci95=0.0,
                       sim_arrival_order_mean=0.01, model_f=0.09,
                       model_stderr=0.0)
    assert tenfold.match
    mismatch = TauPoint(tau=4, sim_mean=0.01, sim_ci95=0.0,
                        sim_arrival_order_mean=0.01, model_f=0.2,
                        model_stderr=0.0)
    assert not mismatch.match
    both_zero = TauPoint(tau=4, sim_mean=0.0, sim_ci95=0.0,
                         sim_arrival_order_mean=0.0, model_f=0.0,
                         model_stderr=0.0)
    assert both_zero.match


def test_internet_experiments_tiny():
    results = run_internet_experiments(
        n_experiments=2, taus=(4.0, 10.0), profile=TINY, seed=11)
    assert len(results) == 2
    kinds = {r.kind for r in results}
    assert kinds == {"homogeneous", "heterogeneous"}
    points = scatter_points(results)
    assert len(points) == 4
    for _, sim_f, model_f in points:
        assert 0.0 <= sim_f <= 1.0
        assert 0.0 <= model_f <= 1.0
    assert 0.0 <= within_tenfold_fraction(results) <= 1.0


def test_internet_heterogeneous_uses_high_rtt_path():
    results = run_internet_experiments(
        n_experiments=2, taus=(4.0,), profile=TINY, seed=13)
    hetero = [r for r in results if r.kind == "heterogeneous"][0]
    rtts = sorted(m["rtt"] for m in hetero.measured)
    assert rtts[1] > 0.2  # the trans-Pacific path
    assert hetero.mu == 100.0
