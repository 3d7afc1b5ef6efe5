"""Model-solve batches: pinned, and equal to one solve at a time.

``ReplicationExecutor.solve_models`` is the one door every cached model
solve goes through (run_setting's per-tau solves, Fig 7, Fig 8, the
required-delay searches), and it runs each chunk of a batch through the
stationary kernel as one lockstep call per flow count K.  The batch
below mixes K = 1, 2 and 3, both loss models, and different ``mu``,
``tau``, ``horizon_s`` and seeds, with one short-horizon task beside
long ones.  Its estimates are pinned exactly, and must equal the
estimates of one ``late_fraction_mc`` call per task.

Every task of the batch ends inside a 64-step RNG block.  The kernel
that drew one Poisson row per step ran seeds 1-7 for 1688, 888, 2904,
176, 2576, 416 and 992 steps, none a multiple of 64.  So the pins also
cover solves finalised at a poll inside a block, from the late and
delivered counts as they stand at that poll.
"""

from __future__ import annotations

import collections
import dataclasses
import os

import numpy as np
import pytest

from repro import telemetry
from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import ModelTask, ReplicationExecutor
from repro.experiments.runner import fetch_estimates
from repro.model.dmp_model import DmpModel
from repro.model.tcp_chain import FlowParams

A = FlowParams(p=0.02, rtt=0.1, to_ratio=2.0, wmax=8)
B = FlowParams(p=0.05, rtt=0.2, to_ratio=3.0, wmax=8, loss_model="sparse")
C = FlowParams(p=0.03, rtt=0.15, to_ratio=4.0, wmax=12)

TASKS = (
    ModelTask((A, B), mu=45.0, tau=2.0, horizon_s=2000.0, seed=1),
    ModelTask((A,), mu=35.0, tau=4.0, horizon_s=1500.0, seed=2),
    ModelTask((A, B, C), mu=65.0, tau=1.0, horizon_s=2500.0, seed=3),
    ModelTask((B, B), mu=25.0, tau=3.0, horizon_s=300.0, seed=4),
    ModelTask((A, B), mu=50.0, tau=6.0, horizon_s=3000.0, seed=5),
    ModelTask((C,), mu=16.0, tau=1.5, horizon_s=1200.0, seed=6),
    ModelTask((B, C, A), mu=70.0, tau=2.5, horizon_s=800.0, seed=7),
)

#: (late fraction, stderr, path shares) of each task, as solved one
#: ``late_fraction_mc`` call at a time.
PINNED = [
    (0.018455149281540066, 0.005140655496301041,
     (0.7494287167316495, 0.25057128326835054)),
    (0.00923283873599571, 0.006574539852269129, (1.0,)),
    (0.14789141318553162, 0.021174368647374726,
     (0.5439002541476327, 0.19102822376341166, 0.26507152208895574)),
    (0.008254306628852725, 0.008249406094614067,
     (0.5149945046318103, 0.48500549536818965)),
    (3.5668359891178026e-17, 3.5668359891178014e-17,
     (0.7418785008404271, 0.258121499159573)),
    (0.4057698907735018, 0.047491485913231365, (1.0,)),
    (0.020160295842771323, 0.009682943354509052,
     (0.18844156149380714, 0.27203929587064324, 0.5395191426355496)),
]


def _summary(estimates):
    return [(e.late_fraction, e.stderr, tuple(map(float, e.path_shares)))
            for e in estimates]


def test_mixed_batch_estimates_are_pinned():
    estimates = ReplicationExecutor(max_workers=1).solve_models(TASKS)
    assert _summary(estimates) == PINNED
    assert [e.horizon_s for e in estimates] \
        == [task.horizon_s for task in TASKS]
    assert {e.method for e in estimates} == {"mc"}


def test_batch_of_one_is_pinned():
    (estimate,) = ReplicationExecutor(max_workers=1).solve_models(
        TASKS[2:3])
    assert _summary([estimate]) == PINNED[2:3]


def _blocks(session):
    return {c.name: c.total for c in session.metrics.counters()} \
        .get("mc.blocks", 0)


@pytest.fixture(scope="module")
def one_at_a_time():
    """Each task solved alone on a model of its own, and the RNG blocks
    those solves drew."""
    with telemetry.session() as session:
        estimates = [DmpModel(list(task.flows), mu=task.mu, tau=task.tau)
                     .late_fraction_mc(horizon_s=task.horizon_s,
                                       seed=task.seed)
                     for task in TASKS]
    return estimates, _blocks(session)


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_equals_one_solve_at_a_time(one_at_a_time, workers):
    singles, single_blocks = one_at_a_time
    with telemetry.session() as session:
        batched = ReplicationExecutor(max_workers=workers).solve_models(
            TASKS)
    assert batched == singles
    assert _blocks(session) == single_blocks > 0


#: RNG blocks each task's stream draws, by seed (154 in all).
BLOCKS_BY_SEED = {1: 27, 2: 14, 3: 46, 4: 3, 5: 41, 6: 7, 7: 16}


class _CountingGenerator:
    """Delegates to a real generator and counts its calls by name."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = collections.Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)
        return call


def test_one_poisson_call_per_solve_and_block(monkeypatch, one_at_a_time):
    """Each solve draws its Poisson consumptions once per 64-step block,
    as one call beside its exponential and uniform draws, and the batch
    draws its pinned blocks."""
    real = np.random.default_rng
    streams = {}

    def counting(seed):
        streams[seed] = _CountingGenerator(real(seed))
        return streams[seed]

    monkeypatch.setattr(np.random, "default_rng", counting)
    with telemetry.session() as session:
        estimates = ReplicationExecutor(max_workers=1).solve_models(TASKS)
    assert estimates == one_at_a_time[0]
    assert {seed: rng.calls["standard_exponential"]
            for seed, rng in streams.items()} == BLOCKS_BY_SEED
    for rng in streams.values():
        assert rng.calls["poisson"] == rng.calls["random"] \
            == rng.calls["standard_exponential"]
    assert _blocks(session) == sum(BLOCKS_BY_SEED.values())


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def test_one_solve_span_per_kernel_call():
    """A serial batch opens one ``solve`` span per flow count, in order
    of first appearance, each holding one lockstep ``mc.run`` that
    compiles each distinct flow's chain once."""
    with telemetry.session() as session:
        ReplicationExecutor(max_workers=1).solve_models(TASKS)
    (mapped,) = session.roots
    solves = mapped.children
    assert [(s.name, s.attrs["flows"], s.attrs["tasks"]) for s in solves] \
        == [("solve", 2, 3), ("solve", 1, 2), ("solve", 3, 2)]
    for span in solves:
        runs = [c for c in span.children if c.name == "mc.run"]
        assert [r.attrs["tasks"] for r in runs] == [span.attrs["tasks"]]
    # K=2 runs on chains A and B, K=1 on A and C, K=3 on A, B and C.
    assert [[c.attrs["flows"] for c in _walk(span) if c.name == "mc.compile"]
            for span in solves] == [[2], [2], [3]]


@pytest.mark.parametrize("field, value, message", [
    ("flows", (), "need at least one flow"),
    ("mu", 0.0, "mu must be positive"),
    ("tau", -1.0, "tau must be positive"),
    ("horizon_s", 0.0, "horizon must be positive"),
])
def test_bad_task_is_rejected_before_any_solve(tmp_path, monkeypatch,
                                               field, value, message):
    def no_solve(tasks):
        raise AssertionError("the kernel ran on a bad batch")

    monkeypatch.setattr(parallel, "solve_batch", no_solve)
    store = ResultCache(str(tmp_path))
    with pytest.raises(ValueError, match=message):
        fetch_estimates([TASKS[0],
                         dataclasses.replace(TASKS[1], **{field: value})],
                        store, ReplicationExecutor(max_workers=1))
    assert os.listdir(str(tmp_path)) == []


def test_batch_builds_every_model_before_the_kernel_runs(tmp_path,
                                                         monkeypatch):
    """A task that slipped past its own checks (mutated in place) still
    fails the whole batch before the first lockstep call."""
    def no_kernel(solves):
        raise AssertionError("the kernel ran on a bad batch")

    monkeypatch.setattr(parallel, "stationary_late_fractions", no_kernel)
    bad = dataclasses.replace(TASKS[1])
    object.__setattr__(bad, "mu", -1.0)
    store = ResultCache(str(tmp_path))
    with pytest.raises(ValueError, match="mu must be positive"):
        fetch_estimates([TASKS[0], bad], store,
                        ReplicationExecutor(max_workers=1))
    assert os.listdir(str(tmp_path)) == []
