"""Self-tests of the benchmark: python3 -m pytest bench"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bvpseries.expr import eval_expr, parse_expr  # noqa: E402

import hostspeed  # noqa: E402
from problems import WORKLOADS, op_count  # noqa: E402
from run import Finished, check_op, first_problems, tail  # noqa: E402
from tracing import Span, Tracer, layer_self_times, self_times  # noqa: E402


def _first(workload, seed, count=8):
    return first_problems(workload, seed, count)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = [p.argv() for p in _first(workload, 7)]
    assert first == [p.argv() for p in _first(workload, 7)]
    assert first != [p.argv() for p in _first(workload, 8)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_problems_stay_in_the_workload_ranges(workload):
    spec = WORKLOADS[workload]
    for p in _first(workload, 3, 64):
        assert spec.q[0] <= p.q <= spec.q[1]
        assert spec.x1[0] <= p.x1 <= spec.x1[1]
        assert (p.command, p.fmt) in spec.kinds and p.n in spec.ns


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_forcing_is_the_manufactured_right_hand_side(workload):
    h = 1e-4
    for p in _first(workload, 5, 6):
        a, f = parse_expr(p.a_text), parse_expr(p.f_text)
        for x in np.linspace(h, p.x1 - h, 7):
            u = p.exact(np.array([x - h, x, x + h]))
            second = (u[0] - 2.0 * u[1] + u[2]) / (h * h)
            want = second + eval_expr(a, x) * u[1]
            assert eval_expr(f, x) == pytest.approx(want, rel=1e-5, abs=1e-5)
        assert p.alpha == pytest.approx(float(p.exact(0.0)), abs=1e-15)
        slope = (p.exact(p.x1 + h) - p.exact(p.x1 - h)) / (2.0 * h)
        assert p.beta == pytest.approx(float(slope), rel=1e-6, abs=1e-6)
        a_sup = max(abs(eval_expr(a, float(x))) for x in p.nodes[::max(1, p.n // 4096)])
        assert a_sup * p.x1 ** 2 / 2.0 <= p.q * (1.0 + 1e-12)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_op_count_is_whole_cycles_fixed_by_the_arguments(workload):
    cycle = WORKLOADS[workload].cycle
    counts = [op_count(workload, s) for s in (0.1, 10, 35, 60)]
    assert all(c % cycle == 0 and c >= cycle for c in counts)
    assert counts == sorted(counts) and counts[-1] > counts[0]


def test_host_speed_rescaling():
    assert hostspeed.normalised(2.0, [hostspeed.REFERENCE_S]) == pytest.approx(2.0)
    # A host running at half speed doubles both the op and the probes.
    slow = [2.0 * hostspeed.REFERENCE_S, 2.0 * hostspeed.REFERENCE_S]
    assert hostspeed.normalised(4.0, slow) == pytest.approx(2.0)
    assert hostspeed.normalised(3.0, [0.5 * hostspeed.REFERENCE_S,
                                      1.5 * hostspeed.REFERENCE_S]) == pytest.approx(3.0)
    assert hostspeed.probe() > 0.0


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("op", "glue", 0.0, 10.0, None, 1),
        Span("a", "grid", 1.0, 4.0, 0, 1),
        Span("a.inner", "expr", 2.0, 3.0, 1, 1),
        Span("b", "grid", 4.0, 6.0, 0, 1),
        Span("c", "cli", 7.0, 9.0, 0, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0])
    assert layer_self_times(spans) == pytest.approx(
        {"glue": 3.0, "grid": 4.0, "expr": 1.0, "cli": 2.0})


def test_tracer_links_nested_spans_to_their_parents():
    tracer = Tracer(op=4, start=0.0)
    with tracer.span("outer", "grid"):
        with tracer.span("inner", "expr"):
            pass
    with tracer.span("next", "cli"):
        pass
    spans = tracer.finish()
    assert [(s.name, s.parent, s.op) for s in spans] == [
        ("op", None, 4), ("outer", 0, 4), ("inner", 1, 4), ("next", 0, 4)]


@pytest.mark.parametrize("count", [1, 5, 10, 11, 12, 20, 37, 100, 1000])
def test_tail_keeps_ten_ops_beyond_the_chosen_percentile(count):
    values = list(np.random.default_rng(count).permutation(count) + 1.0)
    percentile, value = tail(values)
    beyond = sum(v > value for v in values)
    if count > 10:
        assert beyond == 10
        assert percentile == pytest.approx(100.0 * (count - 10) / count)
    else:
        assert value == min(values)


def _solve_op(p, u, code=0):
    payload = {"q": p.q, "nodes": p.nodes.tolist(), "u": u.tolist()}
    return Finished(code, json.dumps(payload).encode(), b"", 0.1, 40.0)


def test_check_op_flags_an_error_outside_the_envelope():
    p = _first("solve-stiff", 1, 1)[0]
    exact = p.exact(p.nodes)
    good = check_op(p, _solve_op(p, exact))
    assert not good["failed"] and good["correct"] and good["err"] < good["envelope"]
    bad = check_op(p, _solve_op(p, exact + 1e-3))
    assert bad["failed"] and not bad["correct"]
    crashed = check_op(p, Finished(1, b"", b"boom", 0.1, 40.0))
    assert crashed["failed"] and not crashed["correct"]


def test_check_op_requires_the_verdict_to_match_the_exit_code():
    p = _first("verify-fine", 1, 1)[0]
    checks = [{"name": "ode_residual:I1", "passed": False, "value": 2.0, "limit": 1.0}]
    payload = json.dumps({"q": p.q, "passed": False, "checks": checks}).encode()
    rejected = check_op(p, Finished(5, payload, b"", 0.1, 40.0))
    assert rejected["failed"] and rejected["correct"]
    assert rejected["failed_checks"] == ["ode_residual:I1"]
    contradicted = check_op(p, Finished(0, payload, b"", 0.1, 40.0))
    assert not contradicted["correct"]
