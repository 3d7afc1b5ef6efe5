"""Tests for the parallel replication executor.

Determinism is the executor's whole contract: fanning replications out
over processes must produce *bit-identical* results to the serial
path, because seeding is per-run (``seed0 + run``) and the work is
executed by the same top-level functions either way.
"""

import concurrent.futures
import multiprocessing
import os
import warnings

import pytest

from repro.experiments import parallel
from repro.experiments.configs import Setting
from repro.experiments.parallel import (
    ModelTask,
    ReplicationExecutor,
    simulate_run,
)
from repro.experiments.runner import (ScaleProfile, run_setting,
                                      setting_run_spec)
from repro.model.tcp_chain import FlowParams

TINY = ScaleProfile("tiny", runs=2, duration_s=50.0,
                    model_horizon_s=1500.0)
SETTING = Setting("4-4", (4, 4), mu=80)

_PARENT_PID = os.getpid()


def _fails_in_worker(x):
    """Crashes in a forked worker, succeeds in the parent process."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("simulated worker crash")
    return x * 2


def _always_fails(x):
    raise ValueError("broken everywhere")


# ---------------------------------------------------------------------
# Parallel == serial equivalence
# ---------------------------------------------------------------------
def test_parallel_matches_serial_bit_identical():
    serial = run_setting(SETTING, taus=(2.0, 6.0), profile=TINY,
                         seed0=7, max_workers=1, cache=False)
    par = run_setting(SETTING, taus=(2.0, 6.0), profile=TINY,
                      seed0=7, max_workers=2, cache=False)
    assert len(serial.points) == len(par.points) == 2
    for pt_s, pt_p in zip(serial.points, par.points):
        assert pt_s == pt_p  # TauPoint dataclass: field-wise equality
    assert serial.measured == par.measured
    assert serial.flow_params == par.flow_params
    assert serial.per_run_late == par.per_run_late


def test_simulate_run_is_deterministic():
    spec = setting_run_spec(SETTING, 40.0, 123, scheme="dmp",
                            send_buffer_pkts=16)
    assert simulate_run(spec) == simulate_run(spec)


def test_run_setting_seeds_are_seed0_plus_run():
    """Replication i must depend only on seed0 + i, so shifting seed0
    by one and dropping the last run reproduces runs 1..N-1."""
    three = ScaleProfile("three", runs=3, duration_s=40.0,
                         model_horizon_s=1000.0)
    two = ScaleProfile("two", runs=2, duration_s=40.0,
                       model_horizon_s=1000.0)
    a = run_setting(SETTING, taus=(2.0,), profile=three, seed0=50,
                    run_model=False, cache=False)
    b = run_setting(SETTING, taus=(2.0,), profile=two, seed0=51,
                    run_model=False, cache=False)
    assert a.per_run_late[2.0][1:] == b.per_run_late[2.0]


# ---------------------------------------------------------------------
# Executor mechanics
# ---------------------------------------------------------------------
def test_map_preserves_order_parallel():
    executor = ReplicationExecutor(max_workers=2)
    tasks = [ModelTask(flows=(FlowParams(p=0.02, rtt=0.1,
                                         to_ratio=2.0, wmax=8),) * 2,
                       mu=20.0, tau=2.0, horizon_s=300.0, seed=s)
             for s in (1, 2, 3)]
    results = executor.solve_models(tasks)
    serial = ReplicationExecutor(max_workers=1).solve_models(tasks)
    assert results == serial


def test_worker_crash_is_retried_serially():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pid-based crash injection needs fork")
    executor = ReplicationExecutor(max_workers=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert executor.map(_fails_in_worker, [1, 2, 3]) == [2, 4, 6]
    assert any("retrying serially" in str(w.message) for w in caught)


def test_serial_retry_failure_propagates():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pid-based crash injection needs fork")
    executor = ReplicationExecutor(max_workers=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="broken everywhere"):
            executor.map(_always_fails, [1, 2])


def test_pool_unavailable_falls_back_to_serial(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no process pool in this sandbox")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        NoPool)
    executor = ReplicationExecutor(max_workers=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert executor.map(abs, [-1, -2, -3]) == [1, 2, 3]
    assert any("running serially" in str(w.message) for w in caught)


def test_single_worker_never_creates_a_pool(monkeypatch):
    class Bomb:
        def __init__(self, *args, **kwargs):
            raise AssertionError("pool must not be created")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        Bomb)
    executor = ReplicationExecutor(max_workers=1)
    assert executor.map(abs, [-5]) == [5]
    # A single item needs no pool either, whatever max_workers says.
    assert ReplicationExecutor(max_workers=8).map(abs, [-5]) == [5]


# ---------------------------------------------------------------------
# Defaults and configuration
# ---------------------------------------------------------------------
def test_default_max_workers_resolution(monkeypatch):
    monkeypatch.delenv(parallel.ENV_WORKERS, raising=False)
    parallel.configure(max_workers=None)
    assert parallel.default_max_workers() == 1
    monkeypatch.setenv(parallel.ENV_WORKERS, "3")
    assert parallel.default_max_workers() == 3
    monkeypatch.setenv(parallel.ENV_WORKERS, "junk")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert parallel.default_max_workers() == 1
    parallel.configure(max_workers=5)
    try:
        assert parallel.default_max_workers() == 5
        assert ReplicationExecutor().max_workers == 5
    finally:
        parallel.configure(max_workers=None)


def test_invalid_worker_counts_rejected():
    with pytest.raises(ValueError):
        ReplicationExecutor(max_workers=0)
    with pytest.raises(ValueError):
        parallel.configure(max_workers=0)
