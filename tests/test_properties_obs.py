"""Property-based tests (hypothesis) on the campaign health layer.

Pins the contracts the observability PR rests on:

* :class:`~repro.obs.health.LogHistogram` merge is associative,
  commutative, and equal to ingesting the union of the samples — the
  algebra behind bit-identical serial vs ``--workers N`` rollups;
* the histogram quantile equals the bucket representative of the exact
  order statistic, so it underestimates by at most a factor
  ``1 / (1 + 1/SUBBUCKETS)``;
* :func:`~repro.core.metrics.quantile` endpoint/edge behaviour
  (single sample, q = 0 / q = 1, infinities);
* the :class:`~repro.obs.recorder.FlightRecorder` window is bounded by
  ``ring_size``, keeps exactly the most recent pre-trigger events in
  order, and dumps byte-identically on a replayed event sequence.
"""

import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.metrics import quantile
from repro.obs.health import (LogHistogram, SUBBUCKETS, bucket_index,
                              bucket_lo)
from repro.obs.recorder import FlightRecorder, Trigger


def hist_of(values):
    """A histogram holding ``values``."""
    hist = LogHistogram()
    hist.record_many(values)
    return hist

# ---------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------
finite_values = st.floats(min_value=0.0, max_value=1e12,
                          allow_nan=False, allow_infinity=False)
value_lists = st.lists(finite_values, min_size=0, max_size=60)
quantiles = st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False)


def _structure(hist):
    """Everything except the float ``sum`` (whose equality across
    differently-ordered additions holds only to the last ulp)."""
    data = hist.to_dict()
    del data["sum"]
    return data


# ---------------------------------------------------------------------
# LogHistogram algebra
# ---------------------------------------------------------------------
@given(xs=value_lists, ys=value_lists)
def test_hist_merge_equals_ingest_union(xs, ys):
    merged = hist_of(xs)
    merged.merge(hist_of(ys))
    union = hist_of(xs + ys)
    assert _structure(merged) == _structure(union)
    assert math.isclose(merged.sum, union.sum, rel_tol=1e-9,
                        abs_tol=1e-9)


@given(xs=value_lists, ys=value_lists)
def test_hist_merge_commutative(xs, ys):
    ab = hist_of(xs)
    ab.merge(hist_of(ys))
    ba = hist_of(ys)
    ba.merge(hist_of(xs))
    assert _structure(ab) == _structure(ba)
    assert math.isclose(ab.sum, ba.sum, rel_tol=1e-9, abs_tol=1e-9)


@given(xs=value_lists, ys=value_lists, zs=value_lists)
def test_hist_merge_associative(xs, ys, zs):
    left = hist_of(xs)
    left.merge(hist_of(ys))
    left.merge(hist_of(zs))
    inner = hist_of(ys)
    inner.merge(hist_of(zs))
    right = hist_of(xs)
    right.merge(inner)
    assert _structure(left) == _structure(right)
    assert math.isclose(left.sum, right.sum, rel_tol=1e-9,
                        abs_tol=1e-9)


@given(xs=value_lists)
def test_hist_roundtrips_through_json(xs):
    hist = hist_of(xs)
    text = json.dumps(hist.to_dict(), sort_keys=True)
    back = LogHistogram.from_dict(json.loads(text))
    assert back.to_dict() == hist.to_dict()
    assert json.dumps(back.to_dict(), sort_keys=True) == text


@given(xs=st.lists(finite_values, min_size=1, max_size=60),
       q=quantiles)
def test_hist_quantile_is_bucket_floor_of_order_statistic(xs, q):
    hist = hist_of(xs)
    rank = min(len(xs) - 1, int(q * len(xs)))
    exact = sorted(xs)[rank]
    got = hist.quantile(q)
    expected = 0.0 if exact == 0.0 else bucket_lo(bucket_index(exact))
    assert got == expected
    # ... which bounds the relative error by the bucket width.
    assert got <= exact
    assert exact <= got * (1.0 + 1.0 / SUBBUCKETS)


@given(value=st.floats(min_value=1e-300, max_value=1e300,
                       allow_nan=False, allow_infinity=False))
def test_bucket_contains_its_value(value):
    lo = bucket_lo(bucket_index(value))
    assert lo <= value < lo * (1.0 + 1.0 / SUBBUCKETS)


def test_hist_rejects_bad_values():
    hist = LogHistogram()
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            hist.record(bad)
    with pytest.raises(ValueError):
        hist.quantile(0.5)  # empty
    hist.record(1.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


# ---------------------------------------------------------------------
# metrics.quantile edges
# ---------------------------------------------------------------------
@given(xs=st.lists(st.floats(min_value=0.0, max_value=1e6,
                             allow_nan=False),
                   min_size=1, max_size=40),
       with_inf=st.booleans())
def test_quantile_endpoints_are_min_and_max(xs, with_inf):
    if with_inf:
        xs = xs + [float("inf")]
    assert quantile(xs, 0.0) == min(xs)
    assert quantile(xs, 1.0) == max(xs)


@given(x=st.floats(allow_nan=False), q=quantiles)
def test_quantile_single_sample(x, q):
    assert quantile([x], q) == x


def test_quantile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], -0.1)
    with pytest.raises(ValueError):
        quantile([1.0], 1.1)


# ---------------------------------------------------------------------
# FlightRecorder windows
# ---------------------------------------------------------------------
def _feed(recorder, numbers, threshold):
    """Replay a synthetic session: one client.arrival per number, then
    one tcp.send_buffer observation at ``threshold`` (the trigger)."""
    t = 0.0
    for number in numbers:
        t += 0.25
        recorder("client.arrival", t, ("s0.video0", number))
    recorder("tcp.send_buffer", t + 0.25, ("s0.video0",
                                           float(threshold)))
    return t + 0.25


@settings(max_examples=40)
@given(numbers=st.lists(st.integers(min_value=0, max_value=10_000),
                        min_size=0, max_size=50),
       ring_size=st.integers(min_value=1, max_value=12))
def test_recorder_window_bounded_and_most_recent(numbers, ring_size):
    recorder = FlightRecorder(
        ["s0."], triggers=(Trigger(kind="sendbuf", threshold=8.0),),
        ring_size=ring_size)
    _feed(recorder, numbers, threshold=8.0)
    assert set(recorder.frozen) == {"s0."}
    events = recorder.frozen["s0."].events
    # Bounded by the ring, trigger event included ...
    assert len(events) == min(len(numbers) + 1, ring_size)
    assert events[-1]["topic"] == "tcp.send_buffer"
    # ... and the pre-trigger window is exactly the most recent
    # arrivals, oldest first.
    kept = [e["number"] for e in events[:-1]]
    assert kept == numbers[len(numbers) - len(kept):]


@settings(max_examples=25)
@given(numbers=st.lists(st.integers(min_value=0, max_value=10_000),
                        min_size=1, max_size=30),
       ring_size=st.integers(min_value=1, max_value=8))
def test_recorder_dump_bit_identical_on_replay(numbers, ring_size,
                                               tmp_path_factory):
    contents = []
    for run in range(2):
        recorder = FlightRecorder(
            ["s0."],
            triggers=(Trigger(kind="sendbuf", threshold=4.0),),
            ring_size=ring_size)
        _feed(recorder, numbers, threshold=4.0)
        directory = str(tmp_path_factory.mktemp(f"dump{run}"))
        paths = recorder.dump(directory)
        assert paths == recorder.dump_paths(directory)
        blobs = {}
        for path in paths:
            with open(path, "rb") as handle:
                blobs[os.path.basename(path)] = handle.read()
        contents.append(blobs)
    assert contents[0] == contents[1]
    assert contents[0]  # at least one window was written


def test_recorder_only_triggered_ring_is_dumped(tmp_path):
    recorder = FlightRecorder(
        ["s0.", "s1."],
        triggers=(Trigger(kind="sendbuf", threshold=8.0),),
        ring_size=8)
    recorder("client.arrival", 0.1, ("s0.video0", 0))
    recorder("client.arrival", 0.2, ("s1.video0", 0))
    recorder("tcp.send_buffer", 0.3, ("s1.video0", 9.0))
    paths = recorder.dump(str(tmp_path))
    assert len(paths) == 1
    assert "s1" in os.path.basename(paths[0])
