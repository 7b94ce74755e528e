"""Tests of the benchmark's own code: self-time arithmetic, wrapper
installation and removal, failure counting and the tail percentile rule.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import json
import os
import random
import sys
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import crreflect.kernels as kernels  # noqa: E402
import crreflect.linalg as linalg  # noqa: E402
import crreflect.series as series  # noqa: E402
from crreflect.context import VariableContext  # noqa: E402
from crreflect.series import SeriesMap, TruncatedSeries  # noqa: E402


# -- self time ----------------------------------------------------------------


def test_self_time_of_nested_spans():
    #        0: [0, 100]
    #        ├─ 1: [10, 40]
    #        │   └─ 3: [15, 25]
    #        └─ 2: [50, 90]
    start = [0, 10, 50, 15]
    end = [100, 40, 90, 25]
    parent = [-1, 0, 0, 1]
    assert tracer.self_times(start, end, parent) == [30, 20, 40, 10]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Children overlap each other and one sticks out of its parent.
    start = [0, 10, 20, 90]
    end = [100, 30, 40, 120]
    parent = [-1, 0, 0, 0]
    # Covered: [10, 40] (30) plus [90, 100] clipped (10).
    assert tracer.self_times(start, end, parent)[0] == 60


def test_self_time_ignores_input_order():
    start = [0, 50, 10]
    end = [100, 90, 40]
    parent = [-1, 0, 0]
    assert tracer.self_times(start, end, parent) == [30, 40, 30]


# -- wrappers -----------------------------------------------------------------


def _some_series_work():
    ctx = VariableContext(("x", "y"))
    x = TruncatedSeries.variable(ctx, 4, "x")
    y = TruncatedSeries.variable(ctx, 4, "y")
    f = (1 + x + y) * (1 - x * y)  # series.mul_terms
    g = f.compose([x + y, x * y])  # series.compose, iadd_scaled
    rank = linalg.generic_rank(SeriesMap([g, f - 1]))  # linalg.mul_terms
    return g, rank


def test_wrappers_cover_every_binding_and_are_removed():
    orig_mul = kernels.mul_terms
    orig_compose = TruncatedSeries.__dict__["compose"]
    assert series.mul_terms is orig_mul and linalg.mul_terms is orig_mul
    plain = _some_series_work()

    tr = tracer.Tracer()
    tr.install()
    try:
        assert series.mul_terms is not orig_mul
        assert linalg.mul_terms is series.mul_terms
        assert not tracer.originals_restored()
        traced = _some_series_work()
    finally:
        tr.uninstall()

    assert traced[1] == plain[1] and traced[0] == plain[0]
    assert kernels.mul_terms is orig_mul
    assert series.mul_terms is orig_mul and linalg.mul_terms is orig_mul
    assert TruncatedSeries.__dict__["compose"] is orig_compose
    assert tracer.originals_restored()

    counts = tr.exact_counts()
    assert counts["series.compose.calls"] == 1
    assert counts["linalg.bareiss_rank.calls"] == 1
    # Bareiss multiplies through linalg's binding, with order -1.
    bareiss_mul = [i for i in range(len(tr.start))
                   if tr.names[tr.span_name[i]] == "kernels.mul_terms"
                   and tr.names[tr.span_name[tr.parent[i]]]
                   == "linalg.bareiss_rank"]
    assert bareiss_mul


def test_traced_counts_repeat_and_errors_are_counted():
    runs = []
    for _ in range(2):
        tr = tracer.Tracer()
        tr.install()
        try:
            _some_series_work()
            ctx = VariableContext(("x",))
            with pytest.raises(series.SeriesError):
                TruncatedSeries.constant(ctx, 0, 1).derive("x")
        finally:
            tr.uninstall()
        runs.append(tr)
    assert runs[0].exact_counts() == runs[1].exact_counts()
    assert runs[0].exact_counts()["series.errors"] == 1
    metrics = runs[0].layer_metrics()
    assert metrics["series.derive.calls"] >= 1
    assert metrics["kernels.mul_terms.pairs"] > 0
    assert metrics["gaussian.coeff_bits_max"] >= 1
    for name, _, _ in tracer.PER_LAYER:
        if name != "trace.overhead_ratio":
            assert name in metrics, name


def test_mul_pairs_matches_the_products_performed():
    rng = random.Random(5)
    for order in (-1, 0, 2, 4):
        A = {(rng.randint(0, 3), rng.randint(0, 3)): 1 for _ in range(6)}
        B = {(rng.randint(0, 3), rng.randint(0, 3)): 1 for _ in range(6)}
        want = sum(1 for ea in A for eb in B
                   if order < 0 or sum(ea) + sum(eb) <= order)
        assert tracer.mul_pairs(A, B, order) == want


def test_histogram_median():
    assert tracer.histogram_median(Counter()) == 0
    assert tracer.histogram_median(Counter({3: 1})) == 3
    assert tracer.histogram_median(Counter({1: 2, 5: 2})) == 3
    assert tracer.histogram_median(Counter({1: 1, 2: 5, 9: 1})) == 2


# -- failure counting ---------------------------------------------------------


def _execution(digest, problem=None, kind=None, known=None):
    out = workloads.Outcome(digest, problem, known)
    return run.Execution(0.01, 0.01, out, kind)


def test_each_failure_kind_is_counted_once():
    labels = ["ok", "raises", "exits", "pinned", "known", "flaky"]
    first = [
        _execution("a"),
        _execution("b", "ValueError: boom", "raise"),
        _execution("c", "exit code 3: error", "exit"),
        _execution("changed"),
        _execution("e", "exit code 3: known", "exit",
                   "reflection-order0-derive"),
        _execution("f"),
    ]
    second = list(first)
    second[5] = _execution("f2")
    pins = {"pinned": {"digest": "d", "passed": True},
            "raises": {"digest": "x", "passed": True}}
    verdicts = run.judge(labels, [first, second], pins,
                         workloads.KNOWN_FAILURES)
    kinds = [v["kind"] for v in verdicts]
    assert kinds == [None, "raise", "exit", "digest", "exit",
                     "nondeterministic"]
    assert sum(k is not None for k in kinds) == 5
    loud = [v["loud"] for v in verdicts]
    assert loud == [False, True, True, True, False, True]


def test_known_failure_is_loud_when_the_op_was_pinned_passing():
    e = _execution("e", "exit code 3: known", "exit",
                   "reflection-order0-derive")
    v, = run.judge(["op"], [[e]], {"op": {"digest": "d", "passed": True}},
                   workloads.KNOWN_FAILURES)
    assert v["kind"] == "exit" and v["loud"]


def test_execute_classifies_a_raising_op():
    def boom():
        raise ZeroDivisionError("x")
    ex = run.execute(workloads.Op("boom", boom), workloads)
    assert ex.kind == "raise" and "ZeroDivisionError" in ex.outcome.problem


# -- tail percentile ----------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    random.Random(1).shuffle(values)
    value, pct = run.tail(values)
    assert (value, pct) == (90, 90.0)
    assert sum(v > value for v in values) == 10
    value, pct = run.tail(list(range(40)))
    assert value == 29 and pct == 75.0
    assert run.tail(list(range(11)))[0] == 0
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_passes_are_fixed_by_seconds():
    assert run.passes_for(20, "graph_reality") == \
        run.passes_for(20, "graph_reality")
    assert run.passes_for(1, "graph_reality") == 2


# -- benchmark definition and comparison --------------------------------------


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in tracer.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(run.NOMINAL_PASS_S)


def _record(backend, cpu):
    return {"provenance": {"kernel_backend": backend, "workload": "w",
                           "passes": 3},
            "end_to_end": {"cpu_s": cpu}}


def test_compare_refuses_different_backends():
    compare.check_comparable([_record("python", 1.0), _record("python", 1.1)])
    with pytest.raises(ValueError, match="kernel_backend"):
        compare.check_comparable([_record("python", 1.0),
                                  _record("cython", 1.0)])


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2]
    faster = [b * 0.8 for b in base]
    assert compare.verdict(base, faster, True, 0.1)[0] == "gain"
    assert compare.verdict(base, [b * 1.3 for b in base], True, 0.1)[0] \
        == "worse"
    assert compare.verdict(base, list(base), True, 0.1)[0] == "same"


def test_inputs_depend_on_the_seed_only():
    a = [op.label for op in workloads.graph_reality_ops(3, count=3)]
    b = [op.label for op in workloads.graph_reality_ops(3, count=3)]
    assert a == b
    s1 = workloads.real_system(workloads._rng("s", 0), workloads._rng("v", 1),
                               1, 1, 4)
    s2 = workloads.real_system(workloads._rng("s", 0), workloads._rng("v", 1),
                               1, 1, 4)
    s3 = workloads.real_system(workloads._rng("s", 0), workloads._rng("v", 2),
                               1, 1, 4)
    assert s1.rho.components == s2.rho.components
    assert s1.rho.components != s3.rho.components
    assert set(s1.rho.components[0].terms) == set(s3.rho.components[0].terms)


def test_dense_manifest_failure_is_recognized_as_known(tmp_path):
    ops = workloads.manifest_analyze_ops(0, str(tmp_path), dense=1)
    dense = [op for op in ops if "dense" in op.label]
    assert len(dense) == 1
    out = dense[0].call()
    assert out.problem is None or out.known == "reflection-order0-derive"


def test_speed_sampler_samples_and_restores_the_signal_state():
    import signal
    import time

    import calibrate
    before = signal.getsignal(signal.SIGPROF)
    sampler = calibrate.SpeedSampler()
    with sampler:
        t0 = time.process_time()
        while time.process_time() - t0 < 0.2:
            calibrate.kernel()
    assert len(sampler.samples) >= 3
    sampler.top_up(len(sampler.samples) + 2)
    cpu, wall = zip(*sampler.samples)
    assert sampler.spent == pytest.approx((sum(cpu), sum(wall)))
    assert all(x > 0 for x in sampler.scale())
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
