"""Parser, evaluator, and printer tests for the expression language.

Every value and error of the block program is held, bit for bit and
message for message, to the node-by-node walk in ``expr_walk``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvpseries import expr
from bvpseries.expr import (
    EVAL_BLOCK,
    FUNCTIONS,
    Binary,
    Const,
    Expr,
    Unary,
    Var,
    eval_arrays,
    eval_expr,
    parse_expr,
    to_text,
)
from bvpseries.errors import EvalError, ParseError, TableDomainError, UnknownFunction
from bvpseries.grid import CoefficientSpec, make_grid, sample, sample_together
from expr_walk import sample_alone, walk


def _outcome(call, *args):
    """What a call gives, compared bit for bit: the bytes of its values, or
    its error's class, message and x."""
    try:
        return np.asarray(call(*args), dtype=float).tobytes()
    except (EvalError, TableDomainError) as exc:
        return type(exc), str(exc), repr(getattr(exc, "x", None))


def _nested_sums(levels: int) -> str:
    """Sums of nine terms, each the first term of the next outside it."""
    text = "x"
    for _ in range(levels // 9):
        text = "(" + text + "+x" * 8 + ")"
    return text + "+x" * (levels % 9)


# shape -> the text of an expression ``levels`` levels over x
_LEVELS = {
    "sum": lambda levels: "x" + "+x" * levels,
    "product": lambda levels: "x" + "*x" * levels,
    "parentheses": lambda levels: "(" * levels + "x" + ")" * levels,
    "negation": lambda levels: "-" * levels + "x",
    "power": lambda levels: "x^" * levels + "x",
    "functions": lambda levels: "sin(" * levels + "x" + ")" * levels,
    "nested_sums": _nested_sums,
}


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

    # One limit bounds the depth of the tree, so that every walker (the
    # evaluators, the printer, repr, == and hash) stays inside the default
    # recursion limit. Each operator of a chain puts the operands before it
    # a level down, as nesting does: a sum of 3,000 terms, or sums nested
    # in parentheses, reached a RecursionError in the walkers.
    @pytest.mark.parametrize("shape", sorted(_LEVELS))
    def test_depth_limit_counts_every_level(self, shape):
        deepest = parse_expr(_LEVELS[shape](expr._MAX_DEPTH - 1))
        assert _outcome(eval_expr, deepest, 0.5) == _outcome(walk, deepest, 0.5)
        assert parse_expr(to_text(deepest)) == deepest
        assert repr(deepest) and hash(deepest) is not None
        with pytest.raises(ParseError, match="nesting limit"):
            parse_expr(_LEVELS[shape](expr._MAX_DEPTH))
        with pytest.raises(ParseError, match="nesting limit"):
            parse_expr(_LEVELS[shape](3000))


def _parsed(text):
    """The tree that parsing gives, or its error's class, byte offset and
    expected text."""
    try:
        return parse_expr(text)
    except ParseError as exc:
        return type(exc), exc.offset, exc.expected


_OPERATOR_EXPECTED = "end of input or an operator"
_TOKEN_EXPECTED = "a number, 'x', a function name, an operator, or a parenthesis"


class TestTokens:
    @pytest.mark.parametrize("text, parsed", [
        (".", (ParseError, 0, "a numeric literal")),
        ("..5", (ParseError, 0, "a numeric literal")),
        # an exponent needs a digit, so "e" is read as a name
        ("1e", (ParseError, 1, _OPERATOR_EXPECTED)),
        ("1e+", (ParseError, 1, _OPERATOR_EXPECTED)),
        ("2x", (ParseError, 1, _OPERATOR_EXPECTED)),
        ("3.", Const(3.0)),
        ("1.e5", Const(1e5)),
        (".5e-3", Const(0.0005)),
        ("x_1", (UnknownFunction, 0, "a known function, got 'x_1'")),
        ("_x", (UnknownFunction, 0, "a known function, got '_x'")),
        # no-break and ideographic spaces are whitespace
        ("\u00a0x\u00a0+\u30001\u3000", Binary("+", Var(), Const(1.0))),
    ])
    def test_token_edges(self, text, parsed):
        assert _parsed(text) == parsed

    @pytest.mark.parametrize("text, parsed", [
        # an Arabic-Indic three and a fullwidth one are not digits of a
        # number: float() would read "1\u0663" as 13 and "1\uff11" as 11
        ("1\u0663", (ParseError, 1, _TOKEN_EXPECTED)),
        ("1\uff11", (ParseError, 1, _TOKEN_EXPECTED)),
        ("\u0663", (ParseError, 0, _TOKEN_EXPECTED)),
    ])
    def test_numbers_take_ascii_digits_only(self, text, parsed):
        assert _parsed(text) == parsed


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

    def test_negative_zero_keeps_its_sign(self):
        for tree in (Const(-0.0), Binary("*", Var(), Const(-0.0)),
                     Binary("^", Const(-0.0), Const(3.0))):
            want = walk(tree, 0.5)
            got = eval_expr(parse_expr(to_text(tree)), 0.5)
            assert math.copysign(1.0, got) == math.copysign(1.0, want) == -1.0
        assert math.copysign(1.0, eval_expr(parse_expr(to_text(Const(0.0))), 0.5)) == 1.0

    def test_infinite_constant_prints_as_a_literal_that_overflows(self):
        # "inf" would re-parse as an unknown function
        assert to_text(parse_expr("1e999")) == "1e999"
        assert parse_expr(to_text(parse_expr("1e999"))) == Const(math.inf)
        assert to_text(Const(-math.inf)) == "-1e999"
        assert to_text(Binary("*", Var(), Const(-math.inf))) == "x*-1e999"
        for tree in (Const(math.inf), Const(-math.inf), Binary("+", Var(), Const(-math.inf))):
            with pytest.raises(EvalError, match="non-finite intermediate value inf at x = 0.5"):
                eval_expr(parse_expr(to_text(tree)), 0.5)

    def test_a_node_that_is_not_an_expr_is_a_type_error(self):
        for tree in (Binary("+", Var(), 1.0), "x"):
            with pytest.raises(TypeError, match="not an Expr node"):
                eval_arrays([tree], np.array([0.5]))
            with pytest.raises(TypeError, match="not an Expr node"):
                to_text(tree)

    def test_nan_constant_has_no_literal(self):
        # "nan" would re-parse as an unknown function
        for tree in (Const(math.nan), Binary("+", Var(), Unary("sin", Const(-math.nan)))):
            with pytest.raises(ValueError, match="NaN constant has no literal"):
                to_text(tree)


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


def _shape(e):
    """A tree as nested tuples, each constant as its float, so that two
    shapes are equal exactly when the trees are the same tree."""
    if isinstance(e, Const):
        return ("const", e.value)
    if isinstance(e, Var):
        return ("x",)
    if isinstance(e, Unary):
        return (e.op, _shape(e.arg))
    return (e.op, _shape(e.lhs), _shape(e.rhs))


class TestStructuralEquality:
    @given(_ast, _ast)
    @settings(max_examples=300, deadline=None)
    def test_parsed_trees_are_equal_exactly_when_they_are_the_same_tree(self, a, b):
        p, again, q = (parse_expr(to_text(tree)) for tree in (a, a, b))
        assert p is not again and p == again and hash(p) == hash(again)
        assert (p == q) is (_shape(p) == _shape(q))
        assert (p != q) is not (p == q)
        if p == q:
            assert hash(p) == hash(q)

    def test_examples(self):
        assert parse_expr("x + 1") == parse_expr("(x) + 1.0")
        assert parse_expr("x + 1") != parse_expr("1 + x")
        assert parse_expr("sin(x)") != parse_expr("cos(x)")
        assert parse_expr("-x") != parse_expr("0 - x")
        assert len({parse_expr("2*x"), parse_expr("2.0 * (x)"), parse_expr("x*2")}) == 2
        assert Var() == Var() and Const(1.0) != 1.0 and Var() != Const(0.0)
        assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))


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
        # the one-point call gives the walk's bits or its error, and so
        # does the re-parsed tree
        want = _outcome(walk, tree, x)
        assert _outcome(eval_expr, tree, x) == want
        assert _outcome(eval_expr, parse_expr(to_text(tree)), x) == want

    @given(_ast, st.sampled_from([2, 7, 100, EVAL_BLOCK + 3]), st.floats(0.1, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_array_evaluation_is_bit_identical(self, tree, n, x1):
        # whole-array evaluation gives the walk's bits at every node, or
        # fails with the walk's error at the first node that fails
        spec = CoefficientSpec(tree, to_text(tree), None)
        grid = make_grid(x1, n)
        nodes = grid.nodes.tolist()
        want = _outcome(lambda: [walk(tree, x) for x in nodes])
        assert _outcome(spec.evaluate, grid.nodes) == want
        assert _outcome(lambda: sample(spec, grid).values) == _outcome(sample_alone, spec, grid)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _alone(specs, grid):
    """Sampling the specs one at a time by the walk, as ``_outcome``."""
    return _outcome(lambda: [sample_alone(spec, grid) for spec in specs])


def _together(specs, grid):
    return _outcome(lambda: [s.values for s in sample_together(specs, grid)])


def _raised(value):
    if isinstance(value, EvalError):
        raise value
    return value


# (start, span over x1, values) of a table: it covers [0, x1] only from
# start 0 with a span of at least 1
_table = st.tuples(st.sampled_from([0.0, 0.25]), st.sampled_from([0.5, 1.0, 1.5]),
                   st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=5))


class TestSharedProgram:
    """Several trees evaluated as one program of their distinct subtrees."""

    @given(_ast, _ast, _ast, st.sampled_from(("neg",) + tuple(FUNCTIONS)),
           st.sampled_from("+-*/^"), st.sampled_from([2, 7, 100, EVAL_BLOCK + 3]),
           st.floats(0.1, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_shared_subtrees_keep_the_scalar_bits(self, shared, left, right, fn, op, n, x1):
        # a and f both hold `shared`, f twice and under a function, the way
        # f = u'' + a*u repeats a and each sin(k*x + p) of u; f's own term
        # comes first, so its post-order is not the order of its steps
        a = Binary(op, left, shared)
        f = Binary("+", Binary(op, right, shared), Binary("*", a, Unary(fn, shared)))
        specs = [CoefficientSpec(tree, to_text(tree), None) for tree in (a, f)]
        grid = make_grid(x1, n)
        nodes = grid.nodes.tolist()
        assert _together(specs, grid) == _alone(specs, grid)
        # the joint run raises the first tree's error, as one at a time,
        # and holds each tree's own error, as alone
        assert (_outcome(eval_arrays, (a, f), grid.nodes)
                == _outcome(lambda: [[walk(tree, x) for x in nodes] for tree in (a, f)]))
        for tree, got in zip((a, f), expr._eval_each((a, f), grid.nodes)):
            assert (_outcome(lambda: _raised(got))
                    == _outcome(lambda: [walk(tree, x) for x in nodes]))

    @given(st.lists(st.one_of(_ast, _table), min_size=1, max_size=4),
           st.sampled_from([2, 7, 100, EVAL_BLOCK + 3]), st.floats(0.1, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_mixed_specs_sample_as_one_at_a_time(self, drawn, n, x1):
        # tables and expressions in any order: the error is the first
        # failing spec's, a table's span or an expression's first node
        specs = [CoefficientSpec(d, to_text(d), None) if isinstance(d, Expr)
                 else CoefficientSpec.table(np.linspace(d[0], d[0] + d[1] * x1, len(d[2])), d[2])
                 for d in drawn]
        grid = make_grid(x1, n)
        assert _together(specs, grid) == _alone(specs, grid)

    def test_signed_zero_constants_stay_apart(self):
        # the nodes compare equal, so a program keyed on == would
        # share one step between them and give x*-0 the sign of x*0
        assert Const(0.0) == Const(-0.0)
        pos = Binary("*", Var(), Const(0.0))
        neg = Binary("*", Var(), Const(-0.0))
        xs = np.array([0.5, 1.5, 2.5])
        got_pos, got_neg = eval_arrays([pos, neg], xs)
        assert np.array_equal(_bits(got_pos), _bits([0.0] * 3))
        assert np.array_equal(_bits(got_neg), _bits([-0.0] * 3))
        got_neg, got_pos = eval_arrays([neg, pos], xs)
        assert np.array_equal(_bits(got_neg), _bits([-0.0] * 3))
        assert np.array_equal(_bits(got_pos), _bits([0.0] * 3))

    def test_shared_steps_are_not_written_in_place(self):
        # a step that wrote into x's row, or into the caller's array, would
        # change x for every later step and for the caller
        xs = np.linspace(0.0, 1.0, 9)
        before = xs.copy()
        trees = [parse_expr(t) for t in ("x", "-x", "x + 1", "abs(x - 0.5)", "x")]
        got = eval_arrays(trees, xs)
        assert np.array_equal(xs, before)
        for tree, values in zip(trees, got):
            assert np.array_equal(_bits(values), _bits([walk(tree, x) for x in xs.tolist()]))

    def test_each_distinct_function_call_runs_once_per_point(self, monkeypatch):
        # a verify-fine-shaped pair: a has two terms, u two terms, and
        # f = u'' + a*u, so f repeats all of a and every sin/cos/exp of u
        a = "0.31*(0.9*sin(1.7*x + 0.4) + -1.2*cos(2.3*x + -1.1))"
        u = "0.5*sin(1.1*x + 0.2) + 1.3*exp(0.7*x)"
        f = f"(-0.605*sin(1.1*x + 0.2) + 0.637*exp(0.7*x)) + ({a})*({u})"
        specs = [CoefficientSpec.expression(a), CoefficientSpec.expression(f)]
        calls = []
        for name in ("sin", "cos", "exp"):
            fn = expr._OPS[name][0]
            monkeypatch.setitem(expr._OPS, name,
                                (lambda x, fn=fn, name=name: calls.append(name) or fn(x), None))
        for spec in specs:  # a point runs the program, once per distinct call
            spec.evaluate(0.5)
        assert sorted(calls) == sorted(["sin", "cos"] + ["sin", "cos", "sin", "exp"])
        calls.clear()
        grid = make_grid(1.2, 100)
        sample_together(specs, grid)
        assert sorted(calls) == sorted(["sin", "cos", "sin", "exp"] * (grid.n + 1))
