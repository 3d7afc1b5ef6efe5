"""Tests for the certified-envelope verifier (src/repro/verify).

Everything here runs on the exhaustive engine, so the whole suite is
meaningful without z3 installed; tests/test_verify_z3.py re-runs the
pinned instances through the SMT engine and cross-validates against
the Monte-Carlo simulator when z3 is importable.

The pinned numbers are load-bearing: they are the repository's
certified worst cases for the small_specs() instances.  If a change
moves one, that change altered the verified system semantics — update
the number only after understanding which rule changed.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.optional_deps import MissingDependencyError
from repro.verify import (
    AdversaryChoices,
    EnvelopeResult,
    PathBudget,
    Trace,
    TraceViolation,
    VerifySpec,
    VerifyTooLarge,
    compare_schemes,
    exhaustive_feasible,
    format_trace,
    have_z3,
    load_trace_jsonl,
    max_late_envelope,
    max_starvation,
    replay_trace,
    resolve_engine,
    write_trace_jsonl,
)
from repro.verify.exhaustive import (_client_caps, _expand,
                                     _initial_state,
                                     max_late_exhaustive)
from repro.verify.spec import largest_remainder_shares
from tests.verify_specs import small_specs, spec_from_flows


# ---------------------------------------------------------------------
# Spec construction and validation
# ---------------------------------------------------------------------
def _path(rate=2, slack=2, loss=1, delay=0, buffer=3):
    return PathBudget(rate=rate, slack=slack, loss=loss, delay=delay,
                      buffer=buffer)


def test_spec_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        VerifySpec(mu_r=0, tau=2, rounds=8, paths=(_path(),))
    with pytest.raises(ValueError):
        VerifySpec(mu_r=2, tau=-1, rounds=8, paths=(_path(),))
    with pytest.raises(ValueError):
        VerifySpec(mu_r=2, tau=8, rounds=8, paths=(_path(),))
    with pytest.raises(ValueError):
        VerifySpec(mu_r=2, tau=2, rounds=8, paths=(_path(),),
                   gen_rounds=7)  # tau + gen > rounds
    with pytest.raises(ValueError):
        VerifySpec(mu_r=2, tau=2, rounds=8,
                   paths=(_path(), _path()),
                   static_shares=(1, 2))  # sums to 3 != mu_r
    with pytest.raises(ValueError):
        PathBudget(rate=2, slack=-1, loss=0)
    with pytest.raises(ValueError):
        PathBudget(rate=2, slack=0, loss=0, buffer=0)


def test_spec_derived_quantities():
    spec = VerifySpec(mu_r=2, tau=2, rounds=8,
                      paths=(_path(rate=3), _path(rate=1)))
    assert spec.generation_rounds == 6
    assert spec.total_packets == 12
    assert spec.shares == (2, 0)  # largest remainder on rates 3:1
    assert spec.due_end(1) == 0
    assert spec.due_end(2) == 2
    assert spec.due_end(7) == 12
    assert spec.due_end(100) == 12  # clamped at the stream total
    assert spec.provision_ratio() == pytest.approx(2.0)


def test_largest_remainder_shares():
    assert largest_remainder_shares(4, (1, 1)) == (2, 2)
    assert largest_remainder_shares(5, (2, 1)) == (3, 2)
    assert largest_remainder_shares(3, (0, 0)) == (3, 0)
    assert sum(largest_remainder_shares(7, (3, 2, 2))) == 7


def test_spec_from_flows_builds_dominating_budgets():
    from repro.model.tcp_chain import FlowParams
    flows = [FlowParams(p=0.02, rtt=0.5, to_ratio=4.0, wmax=8),
             FlowParams(p=0.05, rtt=1.0, to_ratio=4.0, wmax=8)]
    spec = spec_from_flows(flows, mu=4.0, tau_s=2.0, rounds=12,
                           label="from-flows")
    assert spec.n_paths == 2
    assert spec.mu_r == 4 and spec.tau == 2
    # rate = ceil(wmax * round_s / rtt)
    assert spec.paths[0].rate == 16
    assert spec.paths[1].rate == 8
    assert spec.paths[0].delay == 1 and spec.paths[1].delay == 1
    # Loss budgets dominate the expected loss with headroom.
    assert spec.paths[0].loss >= 2
    assert spec.label == "from-flows"


# ---------------------------------------------------------------------
# Replay validation
# ---------------------------------------------------------------------
def _zero_choices(spec, scheme="dmp"):
    kk = spec.n_paths
    zeros = tuple((0,) * kk for _ in range(spec.rounds))
    fill = None
    if scheme == "dmp":
        # Greedy work-conserving fill onto path 0 first.
        fill = []
        queue = 0
        buf = [0] * kk
        for t in range(spec.rounds):
            queue += spec.generated(t)
            room = [spec.paths[k].buffer - buf[k] for k in range(kk)]
            total = min(queue, sum(room))
            row = []
            left = total
            for k in range(kk):
                take = min(left, room[k])
                row.append(take)
                left -= take
            queue -= total
            for k in range(kk):
                buf[k] += row[k]
                served = min(buf[k], spec.paths[k].rate)
                buf[k] -= served
            fill.append(tuple(row))
        fill = tuple(fill)
    return AdversaryChoices(shortfall=zeros, lost=zeros, fill=fill)


def test_replay_rejects_budget_violations():
    spec = small_specs()["loss-delay"]
    ok = _zero_choices(spec)
    base = replay_trace(spec, ok)
    assert base.late_total == 0

    too_much_slack = AdversaryChoices(
        shortfall=((9, 0),) + ok.shortfall[1:],
        lost=ok.lost, fill=ok.fill)
    with pytest.raises(TraceViolation):
        replay_trace(spec, too_much_slack)

    missing_fill = AdversaryChoices(
        shortfall=ok.shortfall, lost=ok.lost, fill=None)
    with pytest.raises(TraceViolation):
        replay_trace(spec, missing_fill)

    lazy_fill = AdversaryChoices(
        shortfall=ok.shortfall, lost=ok.lost,
        fill=(((0, 0),) + ok.fill[1:]))
    with pytest.raises(TraceViolation):  # work conservation
        replay_trace(spec, lazy_fill)


def test_replay_static_needs_no_fill():
    spec = small_specs()["loss-delay"]
    kk = spec.n_paths
    zeros = tuple((0,) * kk for _ in range(spec.rounds))
    trace = replay_trace(
        spec, AdversaryChoices(shortfall=zeros, lost=zeros),
        scheme="static")
    assert trace.scheme == "static"
    assert trace.late_total == 0


# ---------------------------------------------------------------------
# Pinned certified envelopes (exhaustive engine)
# ---------------------------------------------------------------------
def test_pinned_envelope_loss_delay():
    spec = small_specs()["loss-delay"]
    res = max_late_envelope(spec, engine="exhaustive", cache=False)
    assert isinstance(res, EnvelopeResult)
    assert res.max_late == 2
    assert res.total_packets == 12
    assert res.unsat_threshold == 3
    # Tight by construction: the witness achieves the claim exactly.
    assert res.witness.late_total == 2
    assert replay_trace(spec, _witness_choices(res.witness),
                        "dmp").late_total == 2


def test_pinned_starvation_loss_delay():
    spec = small_specs()["loss-delay"]
    res = max_starvation(spec, engine="exhaustive", cache=False)
    assert res.max_rounds == 2
    assert res.can_starve(2) and not res.can_starve(3)
    assert res.witness.max_starvation == 2


def test_pinned_unsat_certificate_provisioned():
    """Ratio 1.6, zero loss, slack 2: no trace makes any packet late.

    This is the PR's pinned UNSAT certificate — late_total >= 1 is
    unreachable, so tau=2 rounds of startup provably absorb the whole
    adversarial budget."""
    spec = small_specs()["provisioned-16"]
    assert spec.provision_ratio() == pytest.approx(1.6)
    assert all(p.loss == 0 for p in spec.paths)
    res = max_late_envelope(spec, engine="exhaustive", cache=False)
    assert res.max_late == 0
    assert res.unsat_threshold == 1
    assert res.late_fraction == 0.0


def test_provisioned_envelope_is_tight_at_smaller_tau():
    """One startup round fewer and the same budgets do hurt — the
    envelope is not vacuous, tau=2 is genuinely load-bearing."""
    base = small_specs()["provisioned-16"]
    spec = VerifySpec(mu_r=base.mu_r, tau=1, rounds=base.rounds,
                      paths=base.paths, label="provisioned-tau1")
    res = max_late_envelope(spec, engine="exhaustive", cache=False)
    assert res.max_late == 4


def test_pinned_dmp_beats_static_on_stalling_path():
    """The DMP-advantage instance: a long-stalling small-buffer path
    next to a clean one.  Static commits substream packets to the
    stalled path (head-of-line); DMP's backpressure bounds the damage
    to what fits in the dead path's send buffer."""
    spec = small_specs()["stall-asym"]
    cmp = compare_schemes(spec, engine="exhaustive", cache=False)
    assert cmp.dmp.max_late == 2
    assert cmp.static.max_late == 5
    assert cmp.advantage == 3
    assert cmp.dmp_strictly_better


def test_dmp_not_always_better_than_static():
    """Under mild budgets the adversary controls DMP's pull split, so
    DMP's envelope can exceed static's — the comparison query exists
    precisely because the sign is instance-dependent."""
    spec = VerifySpec(
        mu_r=2, tau=2, rounds=8, label="mild",
        paths=(PathBudget(rate=2, slack=2, loss=1, buffer=3),
               PathBudget(rate=2, slack=2, loss=1, buffer=3)))
    cmp = compare_schemes(spec, engine="exhaustive", cache=False)
    assert cmp.dmp.max_late >= cmp.static.max_late


# ---------------------------------------------------------------------
# Random adversaries never beat the envelope
# ---------------------------------------------------------------------
def _witness_choices(trace: Trace) -> AdversaryChoices:
    return AdversaryChoices(
        shortfall=tuple(r.shortfall for r in trace.rounds),
        lost=tuple(r.lost for r in trace.rounds),
        fill=tuple(r.fill for r in trace.rounds)
        if trace.scheme == "dmp" else None)


def _random_trace(spec, scheme, rng):
    """A random budget-respecting adversary built from the exhaustive
    engine's own move generator."""
    caps = _client_caps(spec, scheme)
    state = _initial_state(spec, scheme)
    path = []
    for t in range(spec.rounds):
        options = list(_expand(spec, scheme, t, state, caps))
        choice, state, _, _ = rng.choice(options)
        path.append(choice)
    return AdversaryChoices(
        shortfall=tuple(c[1] for c in path),
        lost=tuple(c[2] for c in path),
        fill=tuple(c[0] for c in path) if scheme == "dmp" else None)


@pytest.mark.parametrize("scheme", ["dmp", "static"])
@pytest.mark.parametrize("name", ["loss-delay", "stall-asym"])
def test_random_adversaries_stay_inside_envelope(name, scheme):
    spec = small_specs()[name]
    envelope = max_late_envelope(spec, scheme=scheme,
                                 engine="exhaustive", cache=False)
    starve = max_starvation(spec, scheme=scheme,
                            engine="exhaustive", cache=False)
    rng = random.Random(1234)
    for _ in range(25):
        trace = replay_trace(spec, _random_trace(spec, scheme, rng),
                             scheme)
        assert trace.late_total <= envelope.max_late
        assert trace.max_starvation <= starve.max_rounds


def test_exhaustive_matches_bruteforce_per_packet_lateness():
    """The replay's late accounting equals counting, packet by packet,
    arrivals against their own deadlines."""
    spec = small_specs()["loss-delay"]
    rng = random.Random(7)
    for _ in range(10):
        trace = replay_trace(spec, _random_trace(spec, "dmp", rng),
                             "dmp")
        arrived_cum = 0
        late = 0
        deadline_of = {}  # packet index -> deadline round
        for t in range(spec.rounds):
            due_prev = spec.due_end(t - 1) if t else 0
            for pkt in range(due_prev, spec.due_end(t)):
                deadline_of[pkt] = t
        arrivals = []
        for r in trace.rounds:
            arrived_cum += sum(r.arrived)
            arrivals.append(arrived_cum)
        for pkt, deadline in deadline_of.items():
            if arrivals[deadline] < pkt + 1:
                late += 1
        assert late == trace.late_total


# ---------------------------------------------------------------------
# Engines and feasibility guards
# ---------------------------------------------------------------------
def test_exhaustive_feasibility_guard():
    big = VerifySpec(
        mu_r=20, tau=2, rounds=20,
        paths=(PathBudget(rate=20, slack=2, loss=0, buffer=8),))
    assert not exhaustive_feasible(big)  # 360 packets > cap
    with pytest.raises(VerifyTooLarge):
        max_late_exhaustive(big)
    assert exhaustive_feasible(small_specs()["loss-delay"])


def test_resolve_engine_contract():
    spec = small_specs()["loss-delay"]
    with pytest.raises(ValueError):
        resolve_engine(spec, "quantum")
    if not have_z3():
        assert resolve_engine(spec) == "exhaustive"
        with pytest.raises(MissingDependencyError):
            resolve_engine(spec, "z3")
        big = VerifySpec(
            mu_r=20, tau=2, rounds=20,
            paths=(PathBudget(rate=20, slack=2, loss=0, buffer=8),))
        with pytest.raises(MissingDependencyError):
            resolve_engine(big)
    else:
        assert resolve_engine(spec) == "z3"
    assert resolve_engine(spec, "exhaustive") == "exhaustive"


# ---------------------------------------------------------------------
# Witness rendering and JSONL round-trip
# ---------------------------------------------------------------------
def test_format_trace_table_shape():
    spec = small_specs()["loss-delay"]
    res = max_late_envelope(spec, engine="exhaustive", cache=False)
    text = format_trace(res.witness)
    lines = text.splitlines()
    assert f"late={res.max_late}" in lines[0]
    assert lines[1].split() == [
        "t", "gen", "queue", "fill", "wdrawn", "served", "lost",
        "dlvrd", "arrvd", "buf", "client", "due", "late"]
    assert len(lines) == 2 + spec.rounds + 1


def test_trace_jsonl_roundtrip_revalidates():
    spec = small_specs()["loss-delay"]
    res = max_late_envelope(spec, engine="exhaustive", cache=False)
    buf = io.StringIO()
    write_trace_jsonl(res.witness, buf)
    buf.seek(0)
    loaded = load_trace_jsonl(buf)
    # The file stores the *resolved* gen_rounds/static_shares, so the
    # specs compare on semantics, not on which defaults were spelled.
    assert loaded.rounds == res.witness.rounds
    assert loaded.late_total == res.witness.late_total
    assert loaded.max_starvation == res.witness.max_starvation
    assert loaded.spec.shares == spec.shares
    assert loaded.spec.generation_rounds == spec.generation_rounds
    assert loaded.spec.paths == spec.paths

    # Tampering with the claimed total is detected on load.
    tampered = buf.getvalue().replace(
        f'"late_total": {res.max_late}',
        f'"late_total": {res.max_late + 1}')
    with pytest.raises(TraceViolation):
        load_trace_jsonl(io.StringIO(tampered))

    with pytest.raises(TraceViolation):
        load_trace_jsonl(io.StringIO("{}\n"))


# ---------------------------------------------------------------------
# Cache integration
# ---------------------------------------------------------------------
def test_verify_results_are_cached_and_revalidated(tmp_path):
    spec = small_specs()["loss-delay"]
    cache = ResultCache(str(tmp_path))
    first = max_late_envelope(spec, engine="exhaustive", cache=cache)
    assert not first.from_cache
    second = max_late_envelope(spec, engine="exhaustive", cache=cache)
    assert second.from_cache
    assert second.max_late == first.max_late
    assert second.witness == first.witness

    # Different query/scheme do not collide.
    starve = max_starvation(spec, engine="exhaustive", cache=cache)
    assert not starve.from_cache
    static = max_late_envelope(spec, scheme="static",
                               engine="exhaustive", cache=cache)
    assert not static.from_cache


def test_corrupt_cached_witness_degrades_to_miss(tmp_path):
    spec = small_specs()["loss-delay"]
    cache = ResultCache(str(tmp_path))
    max_late_envelope(spec, engine="exhaustive", cache=cache)
    # Corrupt every stored record's claimed value.
    for record_file in tmp_path.rglob("*.json"):
        text = record_file.read_text(encoding="utf-8")
        record_file.write_text(
            text.replace('"value": 2', '"value": 7'),
            encoding="utf-8")
    res = max_late_envelope(spec, engine="exhaustive", cache=cache)
    assert not res.from_cache  # recomputed, not trusted
    assert res.max_late == 2


# ---------------------------------------------------------------------
# Fluid cross-check: the certified zero-late regime agrees with the
# fluid model's zero-late regime on a matched constant-rate setting.
# ---------------------------------------------------------------------
def test_zero_late_certificate_agrees_with_fluid_model():
    from repro.model.fluid import late_fraction_from_trace
    spec = small_specs()["provisioned-16"]
    res = max_late_envelope(spec, engine="exhaustive", cache=False)
    assert res.max_late == 0
    # Constant aggregate service at the certified spec's rate sum can
    # never be late in the fluid limit either.
    rate = float(sum(p.rate for p in spec.paths))
    fluid = late_fraction_from_trace(
        [rate] * spec.rounds, mu=float(spec.mu_r),
        tau=float(spec.tau), dt=1.0,
        video_duration_s=float(spec.generation_rounds))
    assert fluid == 0.0
