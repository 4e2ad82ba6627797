"""Self-tests of the benchmark harness (not of the program).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest_harness.py

The file name keeps it out of the repository's own test collection;
naming it on the command line is what collects it.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import common

common.bootstrap()

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, self_time, tail, union_length  # noqa: E402


# -- tail percentile ---------------------------------------------------
def test_tail_is_the_eleventh_largest_sample():
    value, percentile, count = tail(range(1, 101))
    assert (value, percentile, count) == (90, 90.0, 100)


def test_tail_keeps_ten_samples_beyond_at_any_size():
    for n in (11, 37, 250):
        values = list(np.random.default_rng(n).permutation(n))
        value, percentile, count = tail(values)
        assert count == n
        assert sum(1 for v in values if v > value) == 10
        assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_needs_more_than_ten_samples():
    value, percentile, count = tail(range(10))
    assert math.isnan(value) and math.isnan(percentile) and count == 10


# -- self time ---------------------------------------------------------
def _span(span_id, start, end, parent=None):
    span = Span(span_id, "x", start, parent, "t")
    span.end = end
    return span


def test_union_counts_overlap_once():
    assert union_length([(1, 5), (3, 8), (9, 10)]) == 8
    assert union_length([(2, 2), (4, 3)]) == 0


def test_self_time_with_overlapping_children_from_two_clients():
    # A parent with two concurrent children (two client threads): the
    # overlap [3, 5] is covered once, not twice.
    parent = _span("p", 0.0, 10.0)
    first = _span("a", 1.0, 5.0, "p")
    second = _span("b", 3.0, 8.0, "p")
    assert self_time(parent, [first, second]) == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    parent = _span("p", 2.0, 6.0)
    child = _span("a", 1.0, 4.0, "p")
    assert self_time(parent, [child]) == pytest.approx(2.0)


# -- failure counting --------------------------------------------------
@pytest.fixture(scope="module")
def records():
    return inputs.filler_records(seed=3, caps=inputs.table2_caps(),
                                 count=4)


def _sent(request, status, body):
    return workloads.Sent(request, 0.0, 0.001, status,
                          json.dumps(body).encode())


def test_failures_are_counted_against_attempts(records, monkeypatch):
    from repro.serving import QueryEngine

    monkeypatch.setattr(inputs, "STORE_ENTRIES", len(records))
    analyst = inputs.schedule(3, 0, records, 12)
    dashboard = inputs.schedule(3, 1, records, 24)
    dist = next(r for r in analyst if r.samples == 10_000)
    closed = next(r for r in dashboard if r.cls == "closed")
    listing = next(r for r in dashboard if r.cls == "list")

    def response(request):
        record = records[request.entry]
        engine = QueryEngine(record)
        return {"responses": [{
            "cache_key": record.cache_key, "built": False,
            "answers": [engine.answer(q) for q in request.queries]}]}

    good = json.loads(json.dumps(response(closed)))
    wrong = json.loads(json.dumps(good))
    wrong["responses"][0]["answers"][0]["kind"] = "other"
    entries = {"entries": [{"key": r.cache_key} for r in records]}
    sent = [
        _sent(closed, 200, good),                           # correct
        _sent(dist, 200, json.loads(json.dumps(response(dist)))),
        _sent(closed, 200, wrong),                          # wrong answer
        _sent(closed, 500, {"error": "boom"}),              # non-2xx
        _sent(closed, 200, {"responses": [{"error": "x"}]}),  # error
        _sent(listing, 200, entries),                       # correct
        _sent(listing, 200, {"entries": entries["entries"][:1]}),
    ]
    out = workloads.Outcome()
    workloads._check_queries(out, sent, records)
    assert (out.attempted, out.failed) == (7, 4)


def test_cold_oracle_counts_a_drifted_surrogate(records):
    class Report:
        built = True
        num_solves = 128
        record = records[0]

    pce = records[0].pce
    ref = {"mean": pce.mean.tolist(), "std": pce.std.tolist(),
           "solves": 128}
    out = workloads.Outcome()
    workloads._check_cold(out, "table2", Report, ref)
    drifted = dict(ref, mean=(pce.mean * (1 + 1e-4)).tolist())
    workloads._check_cold(out, "table2", Report, drifted)
    assert (out.attempted, out.failed) == (2, 1)


# -- wrapper transparency ----------------------------------------------
def _tiny_spec():
    from repro.experiments import table1_spec
    return table1_spec(
        reduction={"caps": {"plug1_interface": 1, "plug2_interface": 1,
                            "doping": 1}},
        max_step_um=2.0, rdf_nodes=4)


def test_traced_build_is_bitwise_identical(tmp_path):
    import repro.serving.pipeline as pipeline
    from repro.serving import SurrogateStore
    from repro.solver.linear import SparseFactor

    original_init = SparseFactor.__init__
    plain = pipeline.ensure_surrogate(_tiny_spec(),
                                      SurrogateStore(tmp_path / "a"))
    recorder = Recorder()
    layers.install(recorder)
    try:
        traced = pipeline.ensure_surrogate(_tiny_spec(),
                                           SurrogateStore(tmp_path / "b"))
    finally:
        recorder.unpatch()
    assert SparseFactor.__init__ is original_init
    assert plain.built and traced.built
    np.testing.assert_array_equal(traced.record.pce.coefficients,
                                  plain.record.pce.coefficients)

    metrics = layers.layer_metrics(recorder.spans)
    assert metrics["pipeline.builds"] == 1
    assert metrics["analysis.samples"] + 1 == traced.num_solves
    assert metrics["solver.factorize.count"] > 0
    assert metrics["trace.attributed_ratio"] > 0.9
    roots = {span.trace for span in recorder.spans}
    assert len(roots) == 1
