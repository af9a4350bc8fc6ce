"""Tests for the benchmark's own helpers.

Run with ``PYTHONPATH=src python3 -m pytest perfbench`` from the checkout root.
"""

from __future__ import annotations

import json
import threading

import pytest

from perfbench import stats, tracing, workloads
from perfbench.run import Tally, service_answer_ok, traced


# -- the percentile rule ------------------------------------------------------


def test_percentile_is_nearest_rank():
    ordered = [float(value) for value in range(1, 101)]
    assert stats.percentile(ordered, 50) == 50.0
    assert stats.percentile(ordered, 90) == 90.0
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (50, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    ordered = [float(value) for value in range(count)]
    found = stats.tail(ordered)
    if expected is None:
        assert found is None
        return
    p, value = found
    assert p == expected
    assert sum(1 for sample in ordered if sample > value) >= stats.MIN_TAIL
    assert stats.samples_beyond(count, p) >= stats.MIN_TAIL


def test_summarize_reports_count_median_and_supported_p90():
    summary = stats.summarize([float(value) for value in range(100, 0, -1)])
    assert summary["count"] == 100
    assert summary["p50"] == 50.5
    assert summary["p90"] == 90.0
    assert stats.summarize([1.0] * 99)["p90"] is None  # only 9 samples beyond


def test_relative_iqr_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 12.0, 8.0, 10.2, 9.8]
    q1, median, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.relative_iqr(values) == pytest.approx((q3 - q1) / median)


# -- self-time arithmetic -------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        ["session", 1, 0.0, 10.0, None],
        ["complete", 1, 2.0, 5.0, 0],
        ["parse", 1, 3.0, 4.0, 1],
        ["search", 1, 5.0, 9.0, 0],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"session": 3.0, "complete": 2.0, "parse": 1.0, "search": 4.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_cross_thread_spans_are_charged_to_the_request_in_aggregate():
    spans = [
        ["service", 1, 0.0, 10.0, None],  # request thread waits ...
        ["parse", 1, 0.0, 1.0, 0],
        ["cache.read", 2, 1.0, 1.5, None],  # ... while the loop thread
        ["complete", 3, 2.0, 5.0, None],  # and a solver thread work for it
        ["search", 3, 5.0, 8.0, None],
        ["parse", 3, 5.5, 6.0, 4],
    ]
    selfs = tracing.self_times(spans)
    assert selfs["service"] == pytest.approx(10.0 - 1.0 - 0.5 - 3.0 - 3.0)
    assert selfs["search"] == pytest.approx(2.5)
    assert selfs["parse"] == pytest.approx(1.5)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_without_request_spans_other_threads_are_not_subtracted():
    spans = [["session", 1, 0.0, 4.0, None], ["complete", 2, 0.0, 3.0, None]]
    assert tracing.self_times(spans) == pytest.approx({"session": 4.0, "complete": 3.0})


def test_tracer_links_children_and_folds_same_family_calls():
    tracer = tracing.Tracer()
    read = tracer.traced(lambda: "value", "cache.read")
    write = tracer.traced(lambda: read(), "cache.write")  # promotion: same family
    solve = tracer.traced(lambda: write(), "session")
    assert solve() == "value"
    layers = [span[0] for span in tracer.spans]
    assert layers == ["session", "cache.write"]
    assert tracer.spans[1][4] == 0 and tracer.spans[0][4] is None

    def other_thread():
        write()

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert tracer.spans[-1][0] == "cache.write" and tracer.spans[-1][4] is None


# -- seeded inputs ----------------------------------------------------------------


def test_service_mixed_request_lists_depend_only_on_the_seed():
    first, again, other = (workloads.service_mixed(seed) for seed in (3, 3, 4))
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)
    solving, repeating = first["clients"]
    assert sum(r["kind"] == "hit" for r in solving) == workloads.SERVICE_HITS
    assert all(r["kind"] == "hit" for r in repeating)
    assert len(repeating) == workloads.SERVICE_REPEATS
    misses = [r["spec"] for r in solving if r["kind"] != "hit"]
    expected = workloads.SERVICE_NEW + workloads.SERVICE_UNSEEN + workloads.SERVICE_UNSAT
    assert len(set(misses)) == len(misses) == expected
    assert not set(misses) & set(first["seen"])
    assert {r["spec"] for r in solving + repeating if r["kind"] == "hit"} <= set(first["seen"])


def test_batch_inputs_depend_only_on_the_seed():
    assert workloads.family_batch(2) == workloads.family_batch(2)
    assert workloads.family_batch(2) != workloads.family_batch(3)
    batch = workloads.family_batch(2)
    assert len(set(batch["specs"])) == workloads.FAMILY_SPECS
    assert batch["specs"][0] == batch["root"]


@pytest.mark.parametrize("seed", range(20))
def test_stratified_sample_draws_every_stratum_in_proportion(seed):
    strata = [[f"{name}{index}" for index in range(size)] for name, size in
              (("a", 8), ("b", 2), ("c", 6), ("d", 7), ("e", 1), ("f", 7))]
    total = sum(len(stratum) for stratum in strata)
    chosen = workloads.stratified_sample(strata, 13, __import__("random").Random(seed))
    assert len(set(chosen)) == 13
    for stratum in strata:
        share = sum(item in stratum for item in chosen)
        assert abs(share - len(stratum) * 13 / total) < 1


# -- correctness checks -------------------------------------------------------------


def test_a_wrong_reference_fails_the_comparison():
    want = {
        "signature": ["zlib@1.2.13", ["zlib@1.2.13"], [], ["zlib"], []],
        "dag_hash": "abc",
    }
    body = json.dumps(
        {"result": {"concrete": "zlib@1.2.13", "nodes": 1, "built": ["zlib"], "reused": [],
                    "dag_hash": "abc", "solve_cache": "hit"}}
    )
    request = {"spec": "zlib", "kind": "hit"}
    assert service_answer_ok(request, 200, body, want)
    wrong = dict(want, signature=["zlib@1.2.11"] + want["signature"][1:])
    assert not service_answer_ok(request, 200, body, wrong)
    assert not service_answer_ok({"spec": "zlib", "kind": "new"}, 200, body, want)
    assert not service_answer_ok(request, 500, body, want)
    core = {"core": [["zlib", "requested", 'requested spec "zlib @9"', ""]]}
    unsat = json.dumps({"error": {"detail": {"conflict_core": [
        {"package": "zlib", "kind": "requested", "directive": 'requested spec "zlib @9"',
         "when": "", "constraint": "..."}]}}})
    assert service_answer_ok(request, 422, unsat, core)
    assert not service_answer_ok(request, 422, unsat, {"core": core["core"] + [["x", "y", "z", ""]]})


def test_counts_that_differ_between_traced_runs_fail_the_run():
    units = {"search.propagations": "count", "search.self_s": "s"}
    tally = Tally()
    layers = [
        {"search.propagations": 10, "search.self_s": 1.0, "trace.accounted_frac": 0.99},
        {"search.propagations": 10, "search.self_s": 3.0, "trace.accounted_frac": 0.97},
    ]
    metrics = traced(layers, [2.0, 2.0], 1.0, units, tally)
    assert tally.correct
    assert metrics["search.self_s"] == pytest.approx(2.0)
    assert metrics["trace.overhead_frac"] == pytest.approx(1.0)
    layers[1]["search.propagations"] = 11
    traced(layers, [2.0, 2.0], 1.0, units, tally)
    assert not tally.correct
