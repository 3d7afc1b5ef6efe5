"""Tests for the campaign telemetry layer (repro.telemetry).

The two contracts that matter most:

* **Serial/parallel equivalence** — a campaign fanned out over worker
  processes must merge into a span tree whose :meth:`Span.signature`
  equals the serial run's (worker sessions are shipped back as
  portable JSON and grafted in submit order).
* **Guarded emission** — with no session active, instrumented code
  sees :data:`telemetry.NULL_TELEMETRY` (``active`` False) and spans
  are shared no-op handles, so disabled telemetry stays free.

Everything else (exporters, metrics algebra, the JSONL abort story)
hangs off those two.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import telemetry
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import ModelTask, ReplicationExecutor
from repro.experiments.configs import Setting
from repro.experiments.runner import (ScaleProfile, fetch_estimates,
                                      run_setting)
from repro.model.tcp_chain import FlowParams
from repro.obs import validate_jsonl
from repro.obs.health import LogHistogram
from repro.obs.names import KINDS, NAMES, prometheus_name
from repro.telemetry import (
    NULL_TELEMETRY,
    Span,
    TelemetryJsonlWriter,
    VirtualClock,
)

TINY = ScaleProfile("tiny", runs=2, duration_s=50.0,
                    model_horizon_s=1500.0)
SETTING = Setting("4-4", (4, 4), mu=80)


def _flow() -> FlowParams:
    return FlowParams(p=0.02, rtt=0.1, to_ratio=2.0)


def _task(seed: int = 3) -> ModelTask:
    return ModelTask(flows=(_flow(), _flow()), mu=20.0, tau=4.0,
                     horizon_s=500.0, seed=seed)


def _traced_triple(x):
    """Top-level (picklable) work item that opens its own span."""
    tel = telemetry.current()
    with tel.span("replication", label=str(x)):
        return x * 3


# ---------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------
def test_schema_entries_are_well_formed():
    assert NAMES, "the name table must not be empty"
    for name, (kind, _, help_text) in NAMES.items():
        assert isinstance(name, str) and name
        assert kind in KINDS, name
        assert isinstance(help_text, str) and help_text, name
    exposed = [prometheus_name(name)
               for name, (kind, _, _) in NAMES.items()
               if kind in ("counter", "gauge", "histogram")]
    assert len(set(exposed)) == len(exposed)


def test_undeclared_names_are_rejected():
    with telemetry.session() as tel:
        with pytest.raises(ValueError, match="not a declared span"):
            tel.span("no.such.span")
        with pytest.raises(ValueError, match="not a declared counter"):
            tel.metrics.counter("no.such.counter")
        with pytest.raises(ValueError):
            # Declared, but as a gauge — kind mismatch is an error.
            tel.metrics.counter("executor.utilization")


# ---------------------------------------------------------------------
# Spans and sessions
# ---------------------------------------------------------------------
def test_nested_spans_with_virtual_clock():
    clock = VirtualClock()
    with telemetry.session(clock=clock) as tel:
        with tel.span("campaign", label="demo") as root:
            clock.advance(1.0)
            with tel.span("setting", label="1-1", runs=2) as child:
                clock.advance(2.5)
            assert tel.current_span() is root
        assert tel.current_span() is None
    assert len(tel.roots) == 1
    root = tel.roots[0]
    assert (root.name, root.label) == ("campaign", "demo")
    assert root.t0 == 0.0 and root.t1 == pytest.approx(3.5)
    (child,) = root.children
    assert child.attrs["runs"] == 2
    assert child.duration_s == pytest.approx(2.5)
    assert child.parent_id == root.span_id
    assert root.span_id != child.span_id


def test_exception_marks_span_status_error():
    with telemetry.session(clock=VirtualClock()) as tel:
        with pytest.raises(RuntimeError):
            with tel.span("campaign"):
                raise RuntimeError("boom")
    root = tel.roots[0]
    assert root.status == "error"
    assert root.attrs["error"] == "RuntimeError"


def test_null_telemetry_without_session():
    tel = telemetry.current()
    assert tel is NULL_TELEMETRY
    assert tel.active is False
    with tel.span("campaign") as sp:
        assert sp is None
    # The same shared handle every time: no per-call allocation.
    assert tel.span("campaign") is tel.span("setting")


def test_sessions_nest_and_stop_checks_order():
    outer = telemetry.start()
    inner = telemetry.start()
    assert telemetry.current() is inner
    with pytest.raises(RuntimeError, match="out of order"):
        telemetry.stop(outer)
    telemetry.stop(inner)
    telemetry.stop(outer)
    assert telemetry.current() is NULL_TELEMETRY


def test_signature_ignores_timing_but_not_shape():
    a = Span("campaign", label="x",
             children=[Span("setting", label="1-1")])
    b = Span("campaign", label="x", t0=5.0, t1=9.0,
             timing={"busy_s": 3.0},
             children=[Span("setting", label="1-1", t0=6.0, t1=7.0)])
    assert a.signature() == b.signature()
    b.children.append(Span("setting", label="2-2"))
    assert a.signature() != b.signature()


def test_portable_merge_grafts_with_fresh_ids():
    worker_clock = VirtualClock(start=100.0)
    with telemetry.session(clock=worker_clock) as worker:
        with worker.span("replication", label="w", seed=9):
            worker_clock.advance(1.0)
        worker.metrics.counter("cache.hit").inc(label="run")
    shipped = worker.portable()
    # Portable dumps survive a JSON round trip (process boundary).
    shipped = json.loads(json.dumps(shipped))

    seen = []
    with telemetry.session(clock=VirtualClock()) as parent:
        parent.add_listener(seen.append)
        with parent.span("executor.map", items=1) as sp:
            grafted = parent.merge(shipped)
        assert grafted[0] in sp.children
    root = parent.roots[0]
    (rep,) = root.children
    assert rep.name == "replication" and rep.attrs["seed"] == 9
    assert rep.parent_id == root.span_id
    assert rep.span_id != 0 and rep.span_id != root.span_id
    assert parent.metrics.counter("cache.hit").values == {"run": 1}
    # Listener saw the grafted span and then the closing root.
    assert [s.name for s in seen] == ["replication", "executor.map"]


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------
def test_counter_gauge_histogram_basics():
    with telemetry.session() as tel:
        c = tel.metrics.counter("cache.hit")
        c.inc(label="run")
        c.inc(2, label="model")
        assert c.total == 3 and c.values == {"run": 1, "model": 2}
        g = tel.metrics.gauge("executor.utilization")
        g.set(0.25)
        g.set(0.75)
        assert g.value == 0.75
        h = tel.metrics.histogram("executor.item_seconds")
        for v in (1.0, 3.0):
            h.record(v)
        assert isinstance(h, LogHistogram)
        assert (h.count, h.mean(), h.min, h.max) == (2, 2.0, 1.0, 3.0)
        # get-or-create returns the same object.
        assert tel.metrics.counter("cache.hit") is c


def test_metrics_snapshot_merge_adds_and_overwrites():
    with telemetry.session() as a:
        a.metrics.counter("cache.hit").inc(label="run")
        a.metrics.gauge("executor.utilization").set(0.5)
        a.metrics.histogram("executor.item_seconds").record(2.0)
        snap = a.metrics.snapshot()
    with telemetry.session() as b:
        b.metrics.counter("cache.hit").inc(label="run")
        b.metrics.histogram("executor.item_seconds").record(6.0)
        b.metrics.merge(snap)
        assert b.metrics.counter("cache.hit").values == {"run": 2}
        assert b.metrics.gauge("executor.utilization").value == 0.5
        h = b.metrics.histogram("executor.item_seconds")
        assert (h.count, h.min, h.max) == (2, 2.0, 6.0)


def test_metrics_merge_equals_recording_the_union():
    first = [0.01 * k for k in range(1, 40)]
    second = [0.5, 0.0, 2.25, 0.013, 7.0]
    snapshots = []
    for samples in (first, second):
        with telemetry.session() as tel:
            hist = tel.metrics.histogram("executor.item_seconds")
            for value in samples:
                hist.record(value)
            snapshots.append(json.loads(json.dumps(
                tel.metrics.snapshot())))
    with telemetry.session() as merged, telemetry.session() as union:
        for snapshot in snapshots:
            merged.metrics.merge(snapshot)
        hist = union.metrics.histogram("executor.item_seconds")
        for value in first + second:
            hist.record(value)
    got = merged.metrics.histogram("executor.item_seconds")
    assert got.to_dict() == hist.to_dict()
    assert got.count == len(first) + len(second)
    assert got.quantile(0.99) == hist.quantile(0.99) > 0.0


# ---------------------------------------------------------------------
# Serial / parallel equivalence
# ---------------------------------------------------------------------
def test_executor_map_tree_matches_serial():
    with telemetry.session() as serial:
        out_s = ReplicationExecutor(max_workers=1).map(
            _traced_triple, [0, 1, 2, 3])
    with telemetry.session() as par:
        out_p = ReplicationExecutor(max_workers=2).map(
            _traced_triple, [0, 1, 2, 3])
    assert out_s == out_p == [0, 3, 6, 9]
    sig_s = [r.signature() for r in serial.roots]
    sig_p = [r.signature() for r in par.roots]
    assert sig_s == sig_p
    root = par.roots[0]
    assert root.name == "executor.map"
    assert [c.label for c in root.children] == ["0", "1", "2", "3"]


def test_run_setting_span_tree_matches_serial():
    with telemetry.session() as serial:
        res_s = run_setting(SETTING, taus=(2.0,), profile=TINY,
                            seed0=7, max_workers=1, cache=False)
    with telemetry.session() as par:
        res_p = run_setting(SETTING, taus=(2.0,), profile=TINY,
                            seed0=7, max_workers=2, cache=False)
    assert res_s.points == res_p.points  # results stay bit-identical
    assert [r.signature() for r in serial.roots] \
        == [r.signature() for r in par.roots]


# ---------------------------------------------------------------------
# Cache counters
# ---------------------------------------------------------------------
def test_cache_counters_hit_miss_write_and_corrupt(tmp_path):
    cache = ResultCache(directory=str(tmp_path))
    task = _task()
    with telemetry.session() as tel:
        assert cache.get_model(task) is None          # miss
        from repro.model.dmp_model import LateFractionEstimate
        est = LateFractionEstimate(
            late_fraction=0.1, stderr=0.01, horizon_s=500.0,
            method="mc", path_shares=(0.5, 0.5))
        cache.put_model(task, est)                    # write
        assert cache.get_model(task) is not None      # hit
        counters = {c.name: dict(c.values)
                    for c in tel.metrics.counters()}
        assert counters["cache.miss"] == {"model": 1}
        assert counters["cache.write"] == {"model": 1}
        assert counters["cache.hit"] == {"model": 1}

        # Corrupt the record on disk: miss again + corrupt counter
        # whose label carries the key prefix for forensics.
        key = cache.model_key(task)
        with open(os.path.join(str(tmp_path), key + ".json"),
                  "w", encoding="utf-8") as handle:
            handle.write("{truncated")
        assert cache.get_model(task) is None
        corrupt = tel.metrics.counter("cache.corrupt")
        assert corrupt.values == {f"model:{key[:12]}": 1}
        assert tel.metrics.counter("cache.miss").values == {"model": 2}
    # Plain attribute counters track regardless of telemetry.
    assert (cache.hits, cache.misses, cache.stores) == (1, 2, 1)


def test_warm_batches_open_no_executor_map_span(tmp_path):
    """A batch whose every item hits the cache computes nothing, so it
    opens no ``executor.map`` span."""
    cache = ResultCache(directory=str(tmp_path))
    executor = ReplicationExecutor(max_workers=1)
    fetch_estimates([_task()], cache, executor)
    run_setting(SETTING, taus=(2.0,), profile=TINY, seed0=7,
                max_workers=1, cache=cache)
    with telemetry.session() as tel:
        fetch_estimates([_task()], cache, executor)
        run_setting(SETTING, taus=(2.0,), profile=TINY, seed0=7,
                    max_workers=1, cache=cache)
    names = [span.name for root in tel.roots for span in root.walk()]
    assert names == ["setting"]
    assert tel.metrics.counter("cache.miss").values == {}


def test_cache_counts_nothing_into_null_telemetry(tmp_path):
    cache = ResultCache(directory=str(tmp_path))
    assert cache.get_model(_task()) is None
    assert NULL_TELEMETRY.metrics.counters() == []


# ---------------------------------------------------------------------
# JSONL export
# ---------------------------------------------------------------------
def test_jsonl_writer_round_trip(tmp_path):
    path = str(tmp_path / "telemetry.jsonl")
    clock = VirtualClock()
    with telemetry.session(clock=clock) as tel:
        with TelemetryJsonlWriter(tel, path):
            with tel.span("campaign", label="demo"):
                clock.advance(1.0)
                with tel.span("setting", label="1-1"):
                    clock.advance(0.5)
            tel.metrics.counter("cache.hit").inc(label="run")
            tel.metrics.gauge("executor.utilization").set(0.5)
            tel.metrics.histogram("executor.item_seconds").record(2.0)
    assert validate_jsonl(path) >= 5
    roots, metrics = telemetry.read_telemetry_jsonl(path)
    assert [r.signature() for r in roots] \
        == [r.signature() for r in tel.roots]
    assert metrics.snapshot() == tel.metrics.snapshot()
    assert metrics.counter("cache.hit").values == {"run": 1}
    assert metrics.gauge("executor.utilization").value == 0.5
    hist = metrics.histograms()["executor.item_seconds"]
    assert hist.count == 1 and hist.quantile(0.99) > 0.0
    first = json.loads(open(path, encoding="utf-8").readline())
    assert first["type"] == "meta"


def test_jsonl_writer_flushes_on_exception(tmp_path):
    path = str(tmp_path / "aborted.jsonl")
    clock = VirtualClock()
    with pytest.raises(RuntimeError):
        with telemetry.session(clock=clock) as tel:
            with TelemetryJsonlWriter(tel, path):
                with tel.span("campaign"):
                    with tel.span("setting", label="1-1"):
                        clock.advance(1.0)
                    raise RuntimeError("campaign died")
    # __exit__ closed the writer: the log is complete and valid, and
    # the crashed span carries the error status.
    validate_jsonl(path)
    roots, _ = telemetry.read_telemetry_jsonl(path)
    assert roots[0].status == "error"
    assert roots[0].children[0].status == "ok"


def test_jsonl_hard_abort_leaves_valid_prefix(tmp_path):
    # Simulates a SIGKILL: the writer is never closed.  Every line
    # already on disk is whole (one flush per line), so the prefix
    # validates and reconstructs the spans that had closed.
    path = str(tmp_path / "killed.jsonl")
    clock = VirtualClock()
    with telemetry.session(clock=clock) as tel:
        writer = TelemetryJsonlWriter(tel, path)
        with tel.span("campaign"):
            with tel.span("setting", label="1-1"):
                clock.advance(1.0)
            # ... process dies here; close() never runs.
        tel.remove_listener(writer._on_span)
        writer._handle.close()
    assert validate_jsonl(path) == 3  # meta + 2
    roots, _ = telemetry.read_telemetry_jsonl(path)
    assert [s.name for s in roots[0].walk()] == ["campaign", "setting"]


def test_validate_rejects_bad_logs(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "span"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="before the 'meta'"):
        validate_jsonl(str(bad))
    bad.write_text('{"type": "meta", "schema": 1}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported schema"):
        validate_jsonl(str(bad))
    bad.write_text(
        '{"type": "meta", "schema": 2}\n'
        '{"type": "span", "name": "nope", "id": 1, "parent": 0,'
        ' "t0": 0.0, "t1": 1.0}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="undeclared span"):
        validate_jsonl(str(bad))
    bad.write_text('{"type": "meta", "schema": 2}\n'
                   '{"type": "end", "spans": 7}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="end marker"):
        validate_jsonl(str(bad))
    bad.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        validate_jsonl(str(bad))


@pytest.mark.parametrize("record", [
    '{"type": "histogram", "name": "executor.item_seconds"}',
    '{"type": "histogram", "name": "executor.item_seconds",'
    ' "buckets": {"3": 2}, "zero": 0, "count": 5, "sum": 1.0,'
    ' "min": 0.5, "max": 0.5}',
    '{"type": "counter", "name": "cache.hit", "values": "oops"}',
    '{"type": "counter", "name": "cache.hit", "values": {"run": 1.5}}',
])
def test_validate_rejects_unreadable_metric_payloads(tmp_path, record):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "meta", "schema": 2}\n' + record + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="unreadable"):
        validate_jsonl(str(path))


# ---------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------
def test_chrome_trace_export_schema_and_lanes(tmp_path):
    path = str(tmp_path / "trace.json")
    # Two overlapping "replications" (as merged from two workers) must
    # land on distinct virtual-thread lanes; a later non-overlapping
    # span reuses a lane.
    with telemetry.session(clock=VirtualClock()) as tel:
        with tel.span("executor.map", items=3):
            pass
    root = tel.roots[0]
    root.t0, root.t1 = 0.0, 10.0
    root.children = [
        Span("replication", label="a", t0=1.0, t1=5.0),
        Span("replication", label="b", t0=2.0, t1=6.0),
        Span("replication", label="c", t0=7.0, t1=9.0),
    ]
    count = telemetry.export_chrome_trace(tel, path)
    assert count == 4
    doc = json.load(open(path, encoding="utf-8"))
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert events[0]["ph"] == "M"  # process_name metadata
    xs = {e["name"]: e for e in events if e["ph"] == "X"}
    assert xs["replication a"]["tid"] != xs["replication b"]["tid"]
    assert xs["replication c"]["tid"] == xs["replication a"]["tid"]
    rep = xs["replication b"]
    assert rep["ts"] == pytest.approx(2e6)
    assert rep["dur"] == pytest.approx(4e6)
    assert rep["args"]["status"] == "ok"
    assert rep["pid"] == 0 and rep["cat"] == "replication"


# ---------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------
def test_summary_reports_rates_and_aggregates():
    clock = VirtualClock()
    with telemetry.session(clock=clock) as tel:
        with tel.span("campaign"):
            clock.advance(2.0)
        tel.metrics.counter("cache.hit").inc(3, label="run")
        tel.metrics.counter("cache.miss").inc(1, label="run")
        tel.metrics.gauge("executor.utilization").set(0.805)
        tel.metrics.histogram("executor.item_seconds").record(1.5)
    text = telemetry.summary(tel)
    assert "campaign" in text
    assert "cache hit rate: 75.0%" in text
    assert "worker utilization: 80.5%" in text
    assert "executor.item_seconds: n=1" in text
    assert "p99=" in text


def test_summary_of_empty_session_is_calm():
    with telemetry.session() as tel:
        pass
    assert "telemetry summary" in telemetry.summary(tel)
