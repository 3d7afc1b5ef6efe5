"""Pins on the replicated packet runs behind Fig 7 and two ablations.

Fig 7's emulated Internet experiments and the queue-discipline and
TCP-variant ablations each replicate packet runs and read late
fractions (and, for Fig 7, model estimates) off them.  Their outputs
are pinned here with exact floats and artefact digests, so a change in
how the runs are built, cached or fanned out cannot move a number.
"""

import hashlib

import pytest

from repro.experiments.figures import (
    build_ablation_queue,
    build_ablation_tcp_variant,
)
from repro.experiments.internet import run_internet_experiments
from repro.experiments.runner import ScaleProfile

TINY = ScaleProfile("tiny", runs=2, duration_s=80.0,
                    model_horizon_s=3000.0)
ABLATION = ScaleProfile("pin", runs=2, duration_s=20.0,
                        model_horizon_s=0.0)

MEASURED = [
    [{"p": 0.006519558676028084, "rtt": 0.3083582022565921,
      "to": 1.9592825945952448},
     {"p": 0.0009818360333824251, "rtt": 0.2618280026741183,
      "to": 2.1185675764957046}],
    [{"p": 0.002072538860103627, "rtt": 0.23561099708339986,
      "to": 2.813231651280384},
     {"p": 0.0012039489525644113, "rtt": 0.3731044487801592,
      "to": 1.2974435039568355}],
]

#: taus -> per experiment (sim_late, sim_arrival_order_late, model_late)
EXPECTED = {
    (4.0, 10.0): [
        ({4.0: 0.0, 10.0: 0.0}, {4.0: 0.0, 10.0: 0.0},
         {4.0: 0.0, 10.0: 0.0}),
        ({4.0: 0.0, 10.0: 0.0}, {4.0: 0.0, 10.0: 0.0},
         {4.0: 0.01441727359069242, 10.0: 0.0}),
    ],
    (1.0, 2.0): [
        ({1.0: 0.09625, 2.0: 0.02675}, {1.0: 0.049, 2.0: 0.0},
         {1.0: 0.007538790908917498, 2.0: 4.997585200226311e-08}),
        ({1.0: 0.10625, 2.0: 0.01325}, {1.0: 0.106625, 2.0: 0.0},
         {1.0: 0.16382339230632534, 2.0: 0.07494731006304171}),
    ],
}

ABLATION_SHA256 = {
    build_ablation_queue:
        "538076e4f92a9666cac1b4e12cc950c637e42e96568b1cc8d6c9c2477b24a126",
    build_ablation_tcp_variant:
        "f1678f902bab2d2eb4e2f4361fc6496617425560217044ec7151ab44639840ee",
}


@pytest.mark.parametrize("taus", sorted(EXPECTED))
def test_internet_experiments_pinned(taus):
    results = run_internet_experiments(n_experiments=2, taus=taus,
                                       profile=TINY, seed=11)
    assert [r.measured for r in results] == MEASURED
    assert [(r.sim_late, r.sim_arrival_order_late, r.model_late)
            for r in results] == EXPECTED[taus]


@pytest.mark.parametrize("builder", list(ABLATION_SHA256),
                         ids=lambda builder: builder.__name__)
def test_ablation_artefact_pinned(builder):
    text = builder(ABLATION)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == ABLATION_SHA256[builder]
