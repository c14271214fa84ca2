"""Self-tests of the benchmark: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import io
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ALL = sorted(workloads.WORKLOADS) + [workloads.EDGE_WORKLOAD]


@pytest.mark.parametrize("name", ALL)
def test_generator_is_deterministic_per_seed(name):
    first = list(itertools.islice(workloads.generate(name, 7), 40))
    again = list(itertools.islice(workloads.generate(name, 7), 40))
    other = list(itertools.islice(workloads.generate(name, 8), 40))
    assert first == again
    if name != workloads.EDGE_WORKLOAD:
        assert first != other


def _bound_result(argv):
    import sobprod.cli

    out = io.StringIO()
    code = sobprod.cli.main(argv, out)
    return {"status": "ok", "exit": code, "out": out.getvalue(), "err": "", "tb": None}


@pytest.fixture(scope="module")
def validator():
    return checker.load_validator(run.SCHEMA)


@pytest.fixture(scope="module")
def good():
    op = workloads._bound(2.0, 1.5, 1, "integer")
    return op, _bound_result(op["argv"])


def test_checker_accepts_a_correct_op(validator, good):
    op, res = good
    ref = checker.summarize(op, checker.parse_records(op, res, validator))
    assert checker.classify(op, res, validator, ref) == (None, "ok")


def test_checker_flags_wrong_value(validator, good):
    op, res = good
    ref = checker.summarize(op, checker.parse_records(op, res, validator))
    rec = checker.parse_records(op, res, validator)[0]
    # an upper bound off by 1e-6 keeps every invariant but misses the reference
    bad = dict(res, out=json.dumps(dict(rec, upper=rec["upper"] * (1 + 1e-6))))
    reason, detail = checker.classify(op, bad, validator, ref)
    assert reason == "check" and "reference" in detail
    # an upper bound below the lower bound breaks the interval invariant
    inv = dict(res, out=json.dumps(dict(rec, upper=rec["lower"] / 2)))
    reason, detail = checker.classify(op, inv, validator)
    assert reason == "check" and "lower=" in detail


def test_checker_flags_wrong_argmax(validator, good):
    op, res = good
    rec = checker.parse_records(op, res, validator)[0]
    assert checker.interval_errors(dict(rec, method_of_best_lower="ground"))


def test_checker_flags_injected_traceback_and_exit(validator, good):
    op, res = good
    tb = dict(res, status="exception", exit=1, tb="Traceback ...\nOverflowError: boom\n")
    assert checker.classify(op, tb, validator) == ("traceback", "OverflowError: boom")
    assert checker.classify(op, dict(res, exit=4), validator)[0] == "exit"
    edge = workloads._edge(["bound", "--n", "-1", "--a", "1", "--d", "1"])
    assert checker.classify(edge, dict(res, exit=3, out=""), validator)[0] is None
    assert checker.classify(edge, dict(res, exit=1, out=""), validator)[0] == "exit"


def test_checker_flags_injected_timeout(validator, good):
    op, res = good
    assert checker.classify(op, dict(res, status="timeout"), validator)[0] == "timeout"


def test_time_limit_ends_a_slow_op(validator, monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.5)
    slow = workloads._bound(1.7, 1.2, 1, "non-integer")
    quick = workloads._bound(0.3, 2.0, 1, "low")
    ops, results, _, _ = run.run_ops([slow, quick], None, False)
    assert results[0]["status"] == "timeout" and results[0]["wall_s"] < 5.0
    assert checker.classify(ops[0], results[0], validator)[0] == "timeout"
    assert checker.classify(ops[1], results[1], validator)[0] is None


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0, {"leaf": {"hot": [5, 1.0]}}],
        ["a", 1.0, 4.0, 0, 0, {}],
        ["b", 3.0, 6.0, 0, 0, {}],  # overlaps a: the union 1..6 is covered once
        ["c", 2.0, 3.0, 1, 0, {}],
        ["d", 8.0, 12.0, 0, 0, {}],  # runs past its parent: clipped at 10
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 5 - 2 - 1, 2.0, 3.0, 1.0, 4.0])


def test_tracer_wraps_by_name_imports_and_restores():
    import sobprod
    from sobprod import bessel_lb, bounds, fourier_lb, numerics

    originals = (numerics.integrate_semiline, bessel_lb.integrate_semiline,
                 fourier_lb.integrate_semiline, sobprod.best_bounds)
    t = tracer.Tracer()
    t.install()
    try:
        assert bessel_lb.integrate_semiline is numerics.integrate_semiline
        assert bessel_lb.integrate_semiline is not originals[0]
        assert sobprod.best_bounds is bounds.best_bounds is not originals[3]
        t.op = 0
        sobprod.best_bounds(sobprod.BoundQuery(3.0, 2.0, 2))
    finally:
        t.uninstall()
    assert (numerics.integrate_semiline, bessel_lb.integrate_semiline,
            fourier_lb.integrate_semiline, sobprod.best_bounds) == originals
    m = tracer.layer_metrics(t.spans)
    assert m["bounds.best_bounds.calls"] == 1
    assert m["numerics.maximize_scalar.evals"] == m["bessel_lb.bessel_ratio.calls"] > 0
    assert m["numerics.integrate_semiline.evals"] > 0
    assert m["specfun.hyp2f1_with_error.calls"] > 0
