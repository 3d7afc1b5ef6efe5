"""Tests for the on-disk result cache."""

import dataclasses
import json
import os

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    CODE_VERSION,
    ResultCache,
    resolve_cache,
)
from repro.experiments import parallel
from repro.experiments.configs import CALIBRATED_CONFIGS, Setting
from repro.experiments.figures import build_ablation_tcp_variant
from repro.experiments.internet import run_internet_experiments
from repro.experiments.parallel import ModelTask, RunSpec
from repro.experiments.runner import (ScaleProfile, run_setting,
                                      setting_run_spec)
from repro.model.dmp_model import LateFractionEstimate
from repro.model.tcp_chain import FlowParams

TINY = ScaleProfile("tiny", runs=2, duration_s=40.0,
                    model_horizon_s=1000.0)
SHORT = ScaleProfile("short", runs=2, duration_s=10.0,
                     model_horizon_s=1000.0)
SETTING = Setting("4-4", (4, 4), mu=80)

#: A well-formed single-session record: 4 packets, packet 1 missing.
RECORD = {"flow_stats": [{"mean_rtt": 0.1}],
          "sessions": [{"total_packets": 4,
                        "arrivals": [[0, 0.5], [2, 1.25], [3, 0.75]]}]}


def _spec(**overrides):
    spec = setting_run_spec(SETTING, 40.0, 7, scheme="dmp",
                            send_buffer_pkts=16)
    return dataclasses.replace(spec, **overrides)


def _write_raw(cache, key, payload):
    os.makedirs(cache.directory, exist_ok=True)
    with open(os.path.join(cache.directory, key + ".json"), "w") as fh:
        json.dump(payload, fh)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path))


# ---------------------------------------------------------------------
# Hit / miss; any tau is answered from one record
# ---------------------------------------------------------------------
def test_run_record_round_trip(cache):
    spec = _spec()
    assert cache.get_run(spec) is None
    assert cache.misses == 1
    cache.put_run(spec, RECORD)
    assert cache.stores == 1
    assert cache.get_run(spec) == RECORD
    assert cache.hits == 1


def test_record_at_taus_a_answers_taus_b(cache):
    """Records written at one set of startup delays answer another with
    zero run misses, and the values equal a fresh uncached run."""
    run_setting(SETTING, taus=(2.0, 4.0), profile=SHORT, seed0=7,
                run_model=False, cache=cache)
    assert (cache.misses, cache.stores) == (SHORT.runs, SHORT.runs)
    taus_b = (0.0, 1.0, 3.0, 4.0, 9.5)
    requery = run_setting(SETTING, taus=taus_b, profile=SHORT,
                          seed0=7, run_model=False, cache=cache)
    assert cache.misses == SHORT.runs  # no new misses
    assert cache.hits == SHORT.runs
    assert cache.stores == SHORT.runs  # nothing re-simulated
    fresh = run_setting(SETTING, taus=taus_b, profile=SHORT, seed0=7,
                        run_model=False, cache=False)
    assert requery.per_run_late == fresh.per_run_late
    assert [(p.sim_mean, p.sim_ci95, p.sim_arrival_order_mean)
            for p in requery.points] \
        == [(p.sim_mean, p.sim_ci95, p.sim_arrival_order_mean)
            for p in fresh.points]


def _bad_sessions():
    ok = RECORD["sessions"][0]
    return {
        "arrivals not a list": [dict(ok, arrivals={"0": 0.5})],
        "number below range": [dict(ok, arrivals=[[-1, 0.5]])],
        "number at total": [dict(ok, arrivals=[[4, 0.5]])],
        "more arrivals than packets": [dict(
            ok, total_packets=2, arrivals=[[0, 0.1], [1, 0.2], [2, 0.3]])],
        "duplicate number": [dict(ok, arrivals=[[0, 0.1], [0, 0.2]])],
        "float number": [dict(ok, arrivals=[[0.0, 0.1]])],
        "non-finite time": [dict(ok, arrivals=[[0, float("nan")]])],
        "missing total": [{"arrivals": ok["arrivals"]}],
        "wrong session count": [ok, ok],
        "sessions not a list": ok,
    }


@pytest.mark.parametrize("case", sorted(_bad_sessions()))
def test_malformed_run_record_is_a_miss(cache, case):
    """A malformed record is a miss, never a wrong number."""
    spec = _spec()
    _write_raw(cache, cache.run_key(spec),
               dict(RECORD, sessions=_bad_sessions()[case]))
    assert cache.get_run(spec) is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_put_run_is_a_plain_write(cache):
    spec = _spec()
    cache.put_run(spec, dict(RECORD, counters={"link.send": 1}))
    cache.put_run(spec, RECORD)
    assert cache.get_run(spec) == RECORD  # nothing carried over


# ---------------------------------------------------------------------
# Key sensitivity
# ---------------------------------------------------------------------
#: A different value for each ``build_run`` option the specs carry.
OTHER_OPTIONS = {"queue_discipline": "pie", "scheme": "static",
                 "send_buffer_pkts": 17, "shared_bottleneck": True}


def _bumped(obj, name):
    """``obj`` with its dataclass field ``name`` raised by one."""
    return dataclasses.replace(obj, **{name: getattr(obj, name) + 1})


def _path_variants(path):
    """``path`` with each PathConfig/BottleneckSpec field changed."""
    return [dataclasses.replace(path, bottleneck=_bumped(
                path.bottleneck, field.name))
            for field in dataclasses.fields(path.bottleneck)] \
        + [_bumped(path, field.name)
           for field in dataclasses.fields(path)
           if field.name != "bottleneck"]


def test_run_key_sensitive_to_every_field(cache):
    """Every input a run is built from is in its key: each field of
    each path, the paths' order and count, mu, duration, seed, and each
    option's value and presence."""
    first, second = (CALIBRATED_CONFIGS[i].path_config for i in (1, 4))
    base = _spec(paths=(first, second))
    assert set(dict(base.options)) == set(OTHER_OPTIONS)
    variants = [dataclasses.replace(base, paths=(path, second))
                for path in _path_variants(first)]
    variants += [dataclasses.replace(base, paths=(first, path))
                 for path in _path_variants(second)]
    variants += [
        dataclasses.replace(base, paths=(second, first)),
        dataclasses.replace(base, paths=(first,)),
        dataclasses.replace(base, paths=(first, second, second)),
        dataclasses.replace(base, mu=81.0),
        dataclasses.replace(base, duration_s=41.0),
        dataclasses.replace(base, seed=8),
        dataclasses.replace(base, options=base.options[1:]),
        dataclasses.replace(base, options=tuple(sorted(
            base.options + (("tcp_variant", "sack"),)))),
    ]
    variants += [dataclasses.replace(base, options=tuple(
        (name, OTHER_OPTIONS[name] if name == changed else value)
        for name, value in base.options)) for changed in OTHER_OPTIONS]
    assert len(variants) == 2 * 5 + 8 + 4
    keys = {cache.run_key(spec) for spec in variants}
    keys.add(cache.run_key(base))
    assert len(keys) == len(variants) + 1  # all distinct


def test_run_key_separates_queue_disciplines(cache):
    """Every AQM variant of one setting gets its own sha256 key."""
    keys = {cache.run_key(setting_run_spec(dataclasses.replace(
        SETTING, queue_discipline=d), 40.0, 7))
        for d in ("droptail", "red", "pie", "fq-pie")}
    assert len(keys) == 4
    payload = cache.run_key_payload(_spec())
    assert payload["options"]["queue_discipline"] == "droptail"


def test_edited_config_table_changes_run_keys(cache, monkeypatch):
    """A run is keyed by its paths' contents, not by the setting's
    config indices: after an edit to a ``CALIBRATED_CONFIGS`` entry,
    ``run_setting`` simulates again instead of reading the records
    simulated on the old entry."""
    simulated = []

    def fake_simulate(spec):
        simulated.append(cache.run_key(spec))
        return {"flow_stats": [{"loss_event_estimate": 0.01,
                                "mean_rtt": 0.1,
                                "timeout_ratio": 2.0}] * 2,
                "sessions": RECORD["sessions"]}

    monkeypatch.setattr(parallel, "simulate_run", fake_simulate)
    for bandwidth_mbps in (CALIBRATED_CONFIGS[4].bandwidth_mbps, 6.0):
        monkeypatch.setitem(CALIBRATED_CONFIGS, 4, dataclasses.replace(
            CALIBRATED_CONFIGS[4], bandwidth_mbps=bandwidth_mbps))
        run_setting(SETTING, taus=(2.0,), profile=SHORT, seed0=7,
                    run_model=False, max_workers=1, cache=cache)
    assert len(set(simulated)) == len(simulated) == 2 * SHORT.runs
    assert cache.hits == 0


def test_queue_discipline_axis_forced_a_version_bump():
    """Growing the key material (v5) upgrades old records.

    Records written before the axis existed carried version <= 4
    keys; the bump means they are never read back under the new
    semantics — an implicit-droptail record can't be served for any
    discipline.
    """
    assert CODE_VERSION >= 5


def test_run_key_ignores_taus(cache):
    """Tau is a query on a record, never part of a run's identity."""
    assert "taus" not in {f.name for f in dataclasses.fields(RunSpec)}
    assert "tau" not in json.dumps(cache.run_key_payload(_spec()))


def test_key_embeds_code_version(cache, monkeypatch):
    spec = _spec()
    before = cache.run_key(spec)
    monkeypatch.setattr(cache_mod, "CODE_VERSION", CODE_VERSION + 1)
    assert cache.run_key(spec) != before


def test_backend_axis_forced_a_version_bump():
    """Growing the key material (v7, ``backend``) upgraded old
    records: a pre-backend record — implicitly packet — was never read
    back for a mean-field request or vice versa.  Dropping the axis
    again (v12, with the replicated campaign driver) bumped once more."""
    assert CODE_VERSION >= 12


def test_model_key_sensitive_to_flows_and_inputs(cache):
    flow = FlowParams(p=0.02, rtt=0.1, to_ratio=2.0)
    base = ModelTask(flows=(flow, flow), mu=20.0, tau=4.0,
                     horizon_s=1000.0, seed=0)
    variants = [
        dataclasses.replace(base, flows=(
            FlowParams(p=0.03, rtt=0.1, to_ratio=2.0), flow)),
        dataclasses.replace(base, flows=(flow,)),
        dataclasses.replace(base, mu=21.0),
        dataclasses.replace(base, tau=5.0),
        dataclasses.replace(base, horizon_s=2000.0),
        dataclasses.replace(base, seed=1),
    ]
    keys = {cache.model_key(task) for task in variants}
    keys.add(cache.model_key(base))
    assert len(keys) == len(variants) + 1


# ---------------------------------------------------------------------
# Directory resolution
# ---------------------------------------------------------------------
def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(tmp_path / "env"))
    assert ResultCache().directory == str(tmp_path / "env")
    monkeypatch.delenv(cache_mod.ENV_CACHE_DIR)
    assert ResultCache().directory.endswith(
        os.path.join(".cache", "repro"))
    # An explicit directory beats the environment.
    monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(tmp_path / "env"))
    assert ResultCache(str(tmp_path / "arg")).directory \
        == str(tmp_path / "arg")


# ---------------------------------------------------------------------
# Robustness
# ---------------------------------------------------------------------
def test_corrupted_record_is_a_miss(cache, tmp_path):
    spec = _spec()
    cache.put_run(spec, RECORD)
    path = os.path.join(str(tmp_path), cache.run_key(spec) + ".json")
    full = open(path).read()
    with open(path, "w") as handle:
        handle.write(full[:len(full) // 2])  # truncated JSON
    assert cache.get_run(spec) is None
    # And a fresh put repairs it.
    cache.put_run(spec, RECORD)
    assert cache.get_run(spec) is not None


def test_non_dict_and_schema_less_records_are_misses(cache, tmp_path):
    spec = _spec()
    path = os.path.join(str(tmp_path), cache.run_key(spec) + ".json")
    os.makedirs(str(tmp_path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump([1, 2, 3], handle)
    assert cache.get_run(spec) is None
    with open(path, "w") as handle:
        json.dump({"sessions": "not-a-list", "flow_stats": []}, handle)
    assert cache.get_run(spec) is None


def test_corrupted_model_record_is_a_miss(cache, tmp_path):
    flow = FlowParams(p=0.02, rtt=0.1, to_ratio=2.0)
    task = ModelTask(flows=(flow,), mu=20.0, tau=4.0,
                     horizon_s=1000.0, seed=0)
    path = os.path.join(str(tmp_path), cache.model_key(task) + ".json")
    os.makedirs(str(tmp_path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"late_fraction": "NaN-ish-garbage"}, handle)
    assert cache.get_model(task) is None


def test_unwritable_directory_degrades_to_no_caching(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    broken = ResultCache(str(blocker / "sub"))
    broken.put_run(_spec(), RECORD)
    assert broken.stores == 0  # silently skipped, no exception


def test_model_estimate_round_trip(cache):
    flow = FlowParams(p=0.02, rtt=0.1, to_ratio=2.0)
    task = ModelTask(flows=(flow, flow), mu=20.0, tau=4.0,
                     horizon_s=1000.0, seed=0)
    estimate = LateFractionEstimate(
        late_fraction=0.0125, stderr=0.001, horizon_s=1000.0,
        method="mc", path_shares=(0.5, 0.5))
    cache.put_model(task, estimate)
    assert cache.get_model(task) == estimate


# ---------------------------------------------------------------------
# run_setting integration: warm cache means zero new simulations
# ---------------------------------------------------------------------
def test_warm_cache_skips_all_simulation(cache, monkeypatch):
    cold = run_setting(SETTING, taus=(2.0,), profile=TINY, seed0=7,
                       run_model=False, cache=cache)
    assert cache.stores == TINY.runs

    from repro.experiments import parallel

    def bomb(spec):
        raise AssertionError("warm cache must not simulate")

    monkeypatch.setattr(parallel, "simulate_run", bomb)
    warm = run_setting(SETTING, taus=(2.0,), profile=TINY, seed0=7,
                       run_model=False, cache=cache)
    assert warm.per_run_late == cold.per_run_late
    assert warm.measured == cold.measured
    assert [(pt.tau, pt.sim_mean, pt.sim_ci95,
             pt.sim_arrival_order_mean) for pt in warm.points] \
        == [(pt.tau, pt.sim_mean, pt.sim_ci95,
             pt.sim_arrival_order_mean) for pt in cold.points]


def _no_work(item):
    raise AssertionError("a warm re-run must not simulate or solve")


@pytest.mark.parametrize("build", [
    lambda: run_internet_experiments(n_experiments=2, taus=(1.0, 4.0),
                                     profile=SHORT, seed=11),
    lambda: build_ablation_tcp_variant(ScaleProfile(
        "one", runs=1, duration_s=10.0, model_horizon_s=0.0)),
], ids=["fig7", "ablation_tcp_variant"])
def test_warm_rerun_reads_every_run_and_solve(tmp_path, monkeypatch,
                                              build):
    """Fig 7 and the TCP-variant ablation read their runs (and Fig 7
    its model solves) from the configured cache: a warm re-run
    simulates and solves nothing and gives the same result."""
    cache_mod.configure(enabled=True, directory=str(tmp_path))
    try:
        cold = build()
        cache = cache_mod.default_cache()
        assert cache is not None and cache.hits == 0
        monkeypatch.setattr(parallel, "simulate_run", _no_work)
        monkeypatch.setattr(parallel, "solve_batch", _no_work)
        assert build() == cold
        assert cache.misses == cache.hits > 0
    finally:
        cache_mod.configure(enabled=None, directory=None)


def test_solve_stub_bites_on_a_cold_pass(tmp_path, monkeypatch):
    """Canary for the warm re-run test above: Fig 7's model solves go
    through ``parallel.solve_batch``, so its stub fails a cold pass."""
    cache_mod.configure(enabled=True, directory=str(tmp_path))
    try:
        monkeypatch.setattr(parallel, "solve_batch", _no_work)
        with pytest.raises(AssertionError, match="must not simulate"):
            run_internet_experiments(n_experiments=2, taus=(1.0, 4.0),
                                     profile=SHORT, seed=11)
    finally:
        cache_mod.configure(enabled=None, directory=None)


def test_cache_true_uses_the_configured_cache(tmp_path):
    cache_mod.configure(enabled=False, directory=str(tmp_path))
    try:
        run_setting(SETTING, taus=(2.0,), profile=SHORT, seed0=7,
                    run_model=False, cache=True)
        assert len(os.listdir(str(tmp_path))) == SHORT.runs
    finally:
        cache_mod.configure(enabled=None, directory=None)


def test_cache_false_bypasses_default(tmp_path, monkeypatch):
    cache_mod.configure(enabled=True, directory=str(tmp_path))
    try:
        run_setting(SETTING, taus=(2.0,), profile=TINY, seed0=7,
                    run_model=False, cache=False)
        assert os.listdir(str(tmp_path)) == []  # bypassed
        run_setting(SETTING, taus=(2.0,), profile=TINY, seed0=7,
                    run_model=False)  # cache=None -> default
        assert len(os.listdir(str(tmp_path))) == TINY.runs
    finally:
        cache_mod.configure(enabled=None, directory=None)


def test_resolve_cache_semantics(tmp_path):
    cache_mod.configure(enabled=False)
    try:
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        explicit = ResultCache(str(tmp_path))
        assert resolve_cache(explicit) is explicit
        cache_mod.configure(enabled=True, directory=str(tmp_path))
        default = resolve_cache(None)
        assert isinstance(default, ResultCache)
        assert default.directory == str(tmp_path)
        assert resolve_cache(None) is default  # shared instance
        assert resolve_cache(True) is default
        # True asks for the configured cache even when it is off by
        # default; it never silently disables caching.
        cache_mod.configure(enabled=False, directory=str(tmp_path))
        assert resolve_cache(None) is None
        forced = resolve_cache(True)
        assert isinstance(forced, ResultCache)
        assert forced.directory == str(tmp_path)
    finally:
        cache_mod.configure(enabled=None, directory=None)


# ---------------------------------------------------------------------
# Verification records (repro.verify)
# ---------------------------------------------------------------------
def _verify_spec(**overrides):
    from repro.verify import PathBudget, VerifySpec
    base = dict(
        mu_r=2, tau=2, rounds=8,
        paths=(PathBudget(rate=2, slack=2, loss=1, delay=0, buffer=3),
               PathBudget(rate=1, slack=1, loss=0, delay=1, buffer=2)),
    )
    base.update(overrides)
    return VerifySpec(**base)


def test_verify_records_forced_a_version_bump():
    """Verification results entered the cache in v8; older records
    must never satisfy a verify lookup."""
    assert CODE_VERSION >= 8


def test_verify_key_sensitive_to_every_field(cache):
    from repro.verify import PathBudget
    base = cache.verify_key(_verify_spec())
    assert cache.verify_key(_verify_spec(mu_r=3)) != base
    assert cache.verify_key(_verify_spec(tau=1)) != base
    assert cache.verify_key(_verify_spec(rounds=9)) != base
    bumped = list(_verify_spec().paths)
    bumped[0] = PathBudget(rate=2, slack=3, loss=1, delay=0, buffer=3)
    assert cache.verify_key(
        _verify_spec(paths=tuple(bumped))) != base
    assert cache.verify_key(
        _verify_spec(static_shares=(0, 2))) != base
    assert cache.verify_key(_verify_spec(), scheme="static") != base
    assert cache.verify_key(_verify_spec(), engine="z3") != base
    assert cache.verify_key(_verify_spec(), query="starve") != base


def test_verify_key_uses_resolved_defaults(cache):
    """Spelling out the default gen_rounds/static_shares resolves to
    the same instance, hence the same record; the display label never
    reaches the key."""
    base = cache.verify_key(_verify_spec())
    spec = _verify_spec()
    explicit = _verify_spec(gen_rounds=spec.generation_rounds,
                            static_shares=spec.shares)
    assert cache.verify_key(explicit) == base
    assert cache.verify_key(_verify_spec(label="renamed")) == base


def test_verify_record_round_trip_and_shape_check(cache):
    spec = _verify_spec()
    assert cache.get_verify(spec) is None
    with pytest.raises(ValueError):
        cache.put_verify(spec)
    record = {"value": 2,
              "choices": {"fill": [], "shortfall": [], "lost": []}}
    cache.put_verify(spec, record=record)
    assert cache.get_verify(spec) == record
    # Same spec under a different scheme/query is a separate record.
    assert cache.get_verify(spec, scheme="static") is None
    assert cache.get_verify(spec, query="starve") is None


def test_malformed_verify_record_is_a_miss(cache, tmp_path):
    spec = _verify_spec()
    cache.put_verify(spec, record={"value": 2, "choices": {}})
    # Strip the witness: shape check refuses to surface the record.
    path = os.path.join(str(tmp_path),
                        cache.verify_key(spec) + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"value": 2}, handle)
    assert cache.get_verify(spec) is None
