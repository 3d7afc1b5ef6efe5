"""The lockstep required-delay search against its sequential reference.

:func:`repro.experiments.sweep.required_startup_delays` runs every
question's bisection in rounds of ``fetch_estimates`` batches.  It must
give the answers of the one-model-at-a-time bisection in
``tests/required_delay_reference.py`` bit for bit, and solve exactly the
probes that reference solves, in the same order per question.  One
batch mixes a question unsatisfiable at the top of its grid, one
satisfied at the bottom, decisions that pool several seeds, K = 1 and
K = 2, and the 1-40 and 1-120 grids.
"""

from collections import defaultdict

import pytest

from repro.experiments import parallel, sweep
from repro.experiments.cache import ResultCache
from repro.experiments.sweep import (
    REQUIRED_DELAY_GRID,
    STATIC_DELAY_GRID,
    DelayQuestion,
    required_startup_delays,
)
from repro.model.dmp_model import DmpModel
from repro.model.tcp_chain import FlowParams
from tests import required_delay_reference as reference

FAST = FlowParams(p=0.05, rtt=0.2, to_ratio=2.0, wmax=4)
FAST2 = FlowParams(p=0.08, rtt=0.3, to_ratio=2.0, wmax=4)
CLEAN = FlowParams(p=0.01, rtt=0.1, to_ratio=2.0, wmax=4)
THRESHOLD, HORIZON_S, SEED = 1e-2, 3000.0, 2

QUESTIONS = [
    # sigma_a/mu < 1: the top of the grid already misses.
    DelayQuestion((FAST,), 15.0, REQUIRED_DELAY_GRID),
    # Over-provisioned: satisfied at the bottom of the grid.
    DelayQuestion((CLEAN, CLEAN), 8.0, REQUIRED_DELAY_GRID),
    DelayQuestion((FAST, FAST), 18.0, REQUIRED_DELAY_GRID),
    DelayQuestion((FAST,), 8.0, STATIC_DELAY_GRID),
    DelayQuestion((FAST, FAST2), 12.0, STATIC_DELAY_GRID),
]


def _probes_by_question(solved):
    """``(tau, seed)`` of each solved task, grouped by question."""
    probes = defaultdict(list)
    for task in solved:
        probes[task.flows, task.mu].append((task.tau, task.seed))
    return [probes[q.flows, q.mu] for q in QUESTIONS]


@pytest.fixture(scope="module")
def sequential():
    """Reference answers and the probes each one solved, in order."""
    solved = []
    late_fraction_mc = DmpModel.late_fraction_mc

    def spy(model, horizon_s, seed):
        solved.append(parallel.ModelTask(
            flows=tuple(chain.params for chain in model.chains),
            mu=model.mu, tau=model.tau, horizon_s=horizon_s, seed=seed))
        return late_fraction_mc(model, horizon_s=horizon_s, seed=seed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DmpModel, "late_fraction_mc", spy)
        answers = [reference.required_startup_delay(
            DmpModel(list(q.flows), mu=q.mu, tau=1.0),
            threshold=THRESHOLD, taus=q.taus, horizon_s=HORIZON_S,
            seed=SEED) for q in QUESTIONS]
    return answers, _probes_by_question(solved)


@pytest.fixture(scope="module")
def lockstep(tmp_path_factory):
    """Cold lockstep answers, the batches it solved, and its cache."""
    store = ResultCache(str(tmp_path_factory.mktemp("cache")))
    batches = []
    fetch = sweep.fetch_estimates

    def spy(tasks, cache, executor):
        batches.append(list(tasks))
        return fetch(tasks, cache, executor)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "fetch_estimates", spy)
        answers = required_startup_delays(
            QUESTIONS, threshold=THRESHOLD, horizon_s=HORIZON_S,
            seed=SEED, max_workers=1, cache=store)
    return answers, batches, store


def test_lockstep_matches_sequential_reference(sequential, lockstep):
    answers, probes = sequential
    got, batches, _ = lockstep
    assert got == answers
    assert answers[0] is None
    assert answers[1] == QUESTIONS[1].taus[0]
    # Each round asks every unfinished question for one probe.
    assert len(batches[0]) == len(QUESTIONS)
    assert all(len(batch) <= len(QUESTIONS) for batch in batches)
    assert _probes_by_question(
        [task for batch in batches for task in batch]) == probes
    # Some decisions pooled further seeds, on both grids and both K.
    pooled = [q for q, seen in zip(QUESTIONS, probes)
              if any(seed != SEED for _, seed in seen)]
    assert {len(q.flows) for q in pooled} == {1, 2}
    assert {q.taus for q in pooled} == {REQUIRED_DELAY_GRID,
                                        STATIC_DELAY_GRID}


def _no_solve(tasks):
    raise AssertionError(f"solved {len(tasks)} tasks")


def test_solve_stub_bites_on_a_cold_pass(tmp_path, monkeypatch):
    """Canary for the warm-cache test below: every model solve goes
    through ``parallel.solve_batch``, so its stub fails a cold pass."""
    monkeypatch.setattr(parallel, "solve_batch", _no_solve)
    with pytest.raises(AssertionError, match="solved"):
        required_startup_delays(
            QUESTIONS, threshold=THRESHOLD, horizon_s=HORIZON_S,
            seed=SEED, max_workers=1, cache=ResultCache(str(tmp_path)))


def test_warm_cache_solves_nothing(sequential, lockstep, monkeypatch):
    answers, probes = sequential
    _, _, store = lockstep
    assert store.misses == sum(len(seen) for seen in probes)

    monkeypatch.setattr(parallel, "solve_batch", _no_solve)
    store.hits = store.misses = 0
    assert required_startup_delays(
        QUESTIONS, threshold=THRESHOLD, horizon_s=HORIZON_S, seed=SEED,
        max_workers=1, cache=store) == answers
    assert store.misses == 0
    assert store.hits == sum(len(seen) for seen in probes)
