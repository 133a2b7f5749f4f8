"""Parser, evaluator, and printer tests for the expression language."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvpseries.expr import (
    EVAL_BLOCK,
    FUNCTIONS,
    Binary,
    Const,
    Unary,
    Var,
    eval_expr,
    parse_expr,
    to_text,
)
from bvpseries.errors import EvalError, ParseError, UnknownFunction
from bvpseries.grid import CoefficientSpec, make_grid, sample


class TestParseExamples:
    def test_polynomial(self):
        e = parse_expr("x^2 - 1")
        assert eval_expr(e, 2.0) == 3.0

    def test_scaled_sine(self):
        e = parse_expr("sin(3*x)")
        assert eval_expr(e, math.pi / 6.0) == pytest.approx(1.0, abs=1e-15)

    def test_constant(self):
        assert eval_expr(parse_expr("2.5"), 123.0) == 2.5

    def test_identity(self):
        assert eval_expr(parse_expr("x"), 0.375) == 0.375

    def test_scientific_notation(self):
        assert eval_expr(parse_expr("1.5e-3*x"), 2.0) == 3e-3

    def test_leading_dot_number(self):
        assert eval_expr(parse_expr(".5 + x"), 0.25) == 0.75

    def test_whitespace_insignificant(self):
        assert parse_expr("  x + 1  ") == parse_expr("x+1")

    def test_bytes_input(self):
        assert parse_expr(b"x + 1") == parse_expr("x + 1")


class TestPrecedence:
    def test_mul_binds_tighter_than_add(self):
        assert eval_expr(parse_expr("2+3*4"), 0.0) == 14.0
        assert eval_expr(parse_expr("2*3+4"), 0.0) == 10.0

    def test_pow_binds_tighter_than_neg(self):
        assert eval_expr(parse_expr("-x^2"), 3.0) == -9.0
        assert eval_expr(parse_expr("-2^2"), 0.0) == -4.0

    def test_pow_right_associative(self):
        assert eval_expr(parse_expr("2^3^2"), 0.0) == 512.0

    def test_sub_left_associative(self):
        assert eval_expr(parse_expr("1-2-3"), 0.0) == -4.0

    def test_div_left_associative(self):
        assert eval_expr(parse_expr("6/3/2"), 0.0) == 1.0

    def test_neg_exponent(self):
        assert eval_expr(parse_expr("2^-1"), 0.0) == 0.5

    def test_parens_override(self):
        assert eval_expr(parse_expr("(2+3)*4"), 0.0) == 20.0

    def test_double_negation(self):
        assert eval_expr(parse_expr("--x"), 1.5) == 1.5


class TestParseErrors:
    def test_dangling_operator_offset(self):
        with pytest.raises(ParseError) as info:
            parse_expr("2*")
        assert info.value.offset == 2
        assert "parse error at byte 2" in str(info.value)

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction) as info:
            parse_expr("1 + tan(x)")
        assert info.value.offset == 4
        assert "got 'tan'" in str(info.value)

    def test_unknown_function_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_expr("cot(x)")

    def test_function_without_parens(self):
        with pytest.raises(ParseError) as info:
            parse_expr("sin x")
        assert "'('" in str(info.value)

    def test_unclosed_paren(self):
        with pytest.raises(ParseError) as info:
            parse_expr("(1+2")
        assert info.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as info:
            parse_expr("1 2")
        assert info.value.offset == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expr("")
        with pytest.raises(ParseError):
            parse_expr("   ")

    def test_stray_character(self):
        with pytest.raises(ParseError) as info:
            parse_expr("x + $")
        assert info.value.offset == 4

    def test_offsets_are_bytes(self):
        # the two-byte character pushes the next token to byte offset 6
        with pytest.raises(ParseError) as info:
            parse_expr("x + µ")
        assert info.value.offset == 4

    def test_invalid_utf8(self):
        with pytest.raises(ParseError) as info:
            parse_expr(b"x + \xff")
        assert info.value.offset == 4
        assert "UTF-8" in str(info.value)

    def test_nesting_limit(self):
        with pytest.raises(ParseError):
            parse_expr("(" * 500 + "x" + ")" * 500)

    def test_deep_negation_capped(self):
        with pytest.raises(ParseError):
            parse_expr("-" * 500 + "x")


class TestEvalSemantics:
    def test_division_by_zero(self):
        e = parse_expr("1/(x - 0.5)")
        assert eval_expr(e, 1.0) == 2.0
        with pytest.raises(EvalError):
            eval_expr(e, 0.5)

    def test_log_of_nonpositive(self):
        e = parse_expr("log(x)")
        with pytest.raises(EvalError):
            eval_expr(e, 0.0)
        with pytest.raises(EvalError):
            eval_expr(e, -1.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("sqrt(x)"), -4.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("x^0.5"), -2.0)

    def test_integer_power_of_negative(self):
        assert eval_expr(parse_expr("x^3"), -2.0) == -8.0

    def test_zero_to_zero(self):
        assert eval_expr(parse_expr("x^0"), 0.0) == 1.0

    def test_zero_to_negative(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("x^-1"), 0.0)

    def test_overflow_is_eval_error(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("exp(x)"), 1000.0)
        with pytest.raises(EvalError):
            eval_expr(parse_expr("1e300 * 1e300"), 0.0)

    def test_all_functions_evaluate(self):
        for name in FUNCTIONS:
            e = parse_expr(f"{name}(x)")
            assert math.isfinite(eval_expr(e, 0.5))

    def test_abs(self):
        assert eval_expr(parse_expr("abs(x - 1)"), 0.25) == 0.75


class TestPrinter:
    def test_round_trip_text(self):
        for text in ("x^2 - 1", "sin(3*x)", "(x + 1)*(x - 1)", "-x^2", "2^-1"):
            printed = to_text(parse_expr(text))
            assert parse_expr(printed) == parse_expr(text)

    def test_minimal_parentheses(self):
        assert to_text(parse_expr("x^2 - 1")) == "x^2 - 1"
        assert to_text(parse_expr("((x))")) == "x"
        assert to_text(parse_expr("(x + 1)*2")) == "(x + 1)*2"

    def test_idempotent(self):
        e = parse_expr("exp(-x^2/2) + sqrt(x + 4)")
        assert to_text(parse_expr(to_text(e))) == to_text(e)


_const = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False).map(Const)
_leaf = st.one_of(_const, st.just(Var()))
_ast = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.builds(Unary, st.sampled_from(("neg",) + tuple(FUNCTIONS)), children),
        st.builds(Binary, st.sampled_from("+-*/^"), children, children),
    ),
    max_leaves=25,
)


class TestFuzz:
    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_parser_never_crashes_on_text(self, text):
        try:
            parse_expr(text)
        except ParseError:
            pass

    @given(st.binary(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_parser_never_crashes_on_bytes(self, blob):
        try:
            parse_expr(blob)
        except ParseError:
            pass

    @given(_ast, st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_print_parse_round_trip(self, tree, x):
        reparsed = parse_expr(to_text(tree))
        try:
            want = eval_expr(tree, x)
        except EvalError:
            with pytest.raises(EvalError):
                eval_expr(reparsed, x)
            return
        assert eval_expr(reparsed, x) == want

    @given(_ast, st.sampled_from([2, 7, 100, EVAL_BLOCK + 3]), st.floats(0.1, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_array_evaluation_is_bit_identical(self, tree, n, x1):
        # whole-array evaluation gives the scalar walk's bits at every node,
        # or sample fails with the scalar walk's message
        spec = CoefficientSpec(tree, to_text(tree), None)
        grid = make_grid(x1, n)
        try:
            want = np.array([eval_expr(tree, x) for x in grid.nodes.tolist()])
        except EvalError:
            for x in grid.nodes:
                try:
                    eval_expr(tree, float(x))
                except EvalError as exc:
                    message = f"{spec.source!r} at x = {x}: {exc}"
                    break
            with pytest.raises(EvalError) as info:
                sample(spec, grid)
            assert str(info.value) == message
            return
        got = spec.evaluate(grid.nodes)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(sample(spec, grid).values.view(np.int64), want.view(np.int64))
