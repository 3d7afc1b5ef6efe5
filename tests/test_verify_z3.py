"""z3-engine tests for the certified-envelope verifier.

The z3 SMT engine must agree exactly with the exhaustive engine on
every instance both can solve — any disagreement is an encoding bug
(caught here and, defensively, by the replay cross-check inside the
queries).  On top of engine agreement, this module runs the
cross-validation the verifier exists for: Monte-Carlo tail estimates
from ``run_setting`` never exceed the certified envelope on a matched
spec, and the envelope is tight (its witness replays to exactly the
claimed late count).

These tests need the ``verify`` extra (``pip install -e .[verify]``);
without z3 they skip, and the exhaustive-engine suite in
``tests/test_verify.py`` keeps the verifier covered.
"""

import pytest

z3 = pytest.importorskip(
    "z3", reason="z3 not installed; CI's verify-smoke job runs these"
)

from repro.experiments.configs import Setting  # noqa: E402
from repro.experiments.runner import (ScaleProfile,  # noqa: E402
                                      run_setting)
from repro.verify import (compare_schemes, max_late_envelope,  # noqa: E402
                          max_starvation, resolve_engine)
from tests.verify_specs import small_specs, spec_from_flows  # noqa: E402

# -- engine agreement -------------------------------------------------


def test_resolve_engine_prefers_z3_when_installed():
    spec = small_specs()["loss-delay"]
    assert resolve_engine(spec) == "z3"
    assert resolve_engine(spec, "auto") == "z3"
    assert resolve_engine(spec, "exhaustive") == "exhaustive"


@pytest.mark.parametrize("name", sorted(small_specs()))
@pytest.mark.parametrize("scheme", ["dmp", "static"])
def test_envelope_engines_agree(name, scheme):
    spec = small_specs()[name]
    via_z3 = max_late_envelope(spec, scheme, engine="z3", cache=False)
    via_enum = max_late_envelope(
        spec, scheme, engine="exhaustive", cache=False
    )
    assert via_z3.max_late == via_enum.max_late
    # Both engines must hand back a replayable witness achieving the
    # optimum (tightness by construction).
    assert via_z3.witness.late_total == via_z3.max_late
    assert via_enum.witness.late_total == via_enum.max_late


@pytest.mark.parametrize("name", sorted(small_specs()))
@pytest.mark.parametrize("scheme", ["dmp", "static"])
def test_starvation_engines_agree(name, scheme):
    spec = small_specs()[name]
    via_z3 = max_starvation(spec, scheme, engine="z3", cache=False)
    via_enum = max_starvation(
        spec, scheme, engine="exhaustive", cache=False
    )
    assert via_z3.max_rounds == via_enum.max_rounds


def test_z3_unsat_certificate_on_provisioned_instance():
    # Provisioning ratio 1.6, zero loss budget: z3 proves no packet is
    # ever late after the two startup rounds (the pinned certificate).
    spec = small_specs()["provisioned-16"]
    assert spec.provision_ratio() == pytest.approx(1.6)
    assert all(p.loss == 0 for p in spec.paths)
    res = max_late_envelope(spec, "dmp", engine="z3", cache=False)
    assert res.max_late == 0
    assert res.unsat_threshold == 1


def test_z3_comparison_pins_dmp_advantage():
    res = compare_schemes(
        small_specs()["stall-asym"], engine="z3", cache=False
    )
    assert res.dmp.max_late == 2
    assert res.static.max_late == 5
    assert res.advantage == 3
    assert res.dmp_strictly_better


# -- Monte-Carlo cross-validation -------------------------------------
#
# ISSUE acceptance: on >= 3 small configs (T <= 20, K = 2) the MC tail
# estimates from run_setting never exceed the certified envelope of
# the matched spec.  The tail combines the worst per-run simulated
# late fraction with the MC-kernel estimate + 3 stderr (the kernel
# samples thousands of playout epochs over the model horizon, standing
# in for a large-replication tail).

_PROFILE = ScaleProfile(
    "verify-xval", runs=2, duration_s=80.0, model_horizon_s=3000.0
)
_TAU_S = 6.0

_CROSS_SETTINGS = [
    Setting("1-1", (1, 1), mu=50),
    Setting("2-2", (2, 2), mu=50),
    Setting("4-4", (4, 4), mu=80),
]


@pytest.mark.parametrize(
    "setting", _CROSS_SETTINGS, ids=[s.name for s in _CROSS_SETTINGS]
)
def test_mc_tail_never_exceeds_envelope(setting):
    run = run_setting(
        setting, taus=(_TAU_S,), profile=_PROFILE, seed0=4200
    )
    point = run.point(_TAU_S)
    mc_tail = max(
        max(run.per_run_late[_TAU_S]),
        point.model_f + 3.0 * point.model_stderr,
    )

    spec = spec_from_flows(
        run.flow_params, mu=setting.mu, tau_s=_TAU_S, rounds=16,
        label=f"xval-{setting.name}",
    )
    assert spec.rounds <= 20 and spec.n_paths == 2
    env = max_late_envelope(spec, "dmp", engine="z3", cache=False)

    # Sound: the certified envelope dominates the stochastic tail.
    assert mc_tail <= env.late_fraction + 1e-9
    # Tight: the bound is achieved by a replayed adversarial trace,
    # not just proven unreachable one packet higher.
    assert env.witness.late_total == env.max_late
    assert env.witness.spec == spec
