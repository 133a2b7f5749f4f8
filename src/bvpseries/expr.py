"""Parsing and evaluation of the coefficient expression language.

The language is a single-variable arithmetic grammar over ``x``:

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | "x" | IDENT "(" expr ")" | "(" expr ")"

with IDENT one of sin, cos, exp, log, sqrt, abs, tanh. Numbers are decimal
literals with an optional exponent. ``^`` is right-associative and binds
tighter than unary minus; whitespace is insignificant.

Parsed trees are immutable and evaluation is pure, so a single Expr can be
evaluated concurrently from many threads. ``eval_arrays`` evaluates one or
more trees over an array of points and gives, bit for bit, what
``eval_expr`` gives at each of them. It compiles the trees into one
straight-line program of their distinct subtrees (hash-consing on the
operator and the children's step numbers, constants on their bits), so a
subtree the trees share runs once per point for all of them: with
f = u'' + a*u, each sin, cos or exp of a and of u runs once, not twice.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError, UnknownFunction

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs", "tanh")

_FUNC_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "tanh": math.tanh,
}

# Operations whose numpy ufunc rounds exactly as the Python float operation
# does (IEEE-754 requires correct rounding for them). The other functions and
# ^ go through the math module point by point: numpy's exp, tanh, log and
# power differ from libm in the last bit at some points.
_ARRAY_UNARY = {"neg": np.negative, "abs": np.abs, "sqrt": np.sqrt}
_ARRAY_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

# Points per block in eval_arrays; keeps each temporary at 32 KiB.
EVAL_BLOCK = 4096

_MAX_DEPTH = 100


class Expr:
    """Base class for expression tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    """The free variable x."""


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "neg" or a name from FUNCTIONS
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # one of + - * / ^
    lhs: Expr
    rhs: Expr


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_SPACE = re.compile(r"\s*")

_ATOM_EXPECTED = "a number, 'x', a function call, or '('"


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM IDENT OP LPAREN RPAREN EOF
    text: str
    pos: int  # character index into the source


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while True:
        i = _SPACE.match(text, i).end()
        if i >= n:
            tokens.append(_Token("EOF", "", i))
            return tokens
        ch = text[i]
        if "0" <= ch <= "9" or ch == ".":
            m = _NUMBER.match(text, i)
            if m is None:
                raise ParseError(_byte_offset(text, i), "a numeric literal")
            tokens.append(_Token("NUM", m.group(), i))
            i = m.end()
        elif "a" <= ch <= "z" or "A" <= ch <= "Z" or ch == "_":
            m = _IDENT.match(text, i)
            tokens.append(_Token("IDENT", m.group(), i))
            i = m.end()
        elif ch in "+-*/^":
            tokens.append(_Token("OP", ch, i))
            i += 1
        elif ch == "(":
            tokens.append(_Token("LPAREN", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(_Token("RPAREN", ch, i))
            i += 1
        else:
            raise ParseError(
                _byte_offset(text, i),
                "a number, 'x', a function name, an operator, or a parenthesis",
            )


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def fail(self, tok: _Token, expected: str):
        raise ParseError(_byte_offset(self.text, tok.pos), expected)

    def parse(self) -> Expr:
        node = self.expr(0)
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail(tok, "end of input or an operator")
        return node

    def expr(self, depth: int) -> Expr:
        node = self.term(depth)
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.term(depth))
        return node

    def term(self, depth: int) -> Expr:
        node = self.factor(depth)
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.factor(depth))
        return node

    def factor(self, depth: int) -> Expr:
        if depth >= _MAX_DEPTH:
            self.fail(self.peek(), "a shallower expression (nesting limit reached)")
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Unary("neg", self.factor(depth + 1))
        return self.power(depth)

    def power(self, depth: int) -> Expr:
        base = self.atom(depth)
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            return Binary("^", base, self.factor(depth + 1))
        return base

    def atom(self, depth: int) -> Expr:
        tok = self.advance()
        if tok.kind == "NUM":
            return Const(float(tok.text))
        if tok.kind == "IDENT":
            if tok.text == "x":
                return Var()
            if tok.text not in _FUNC_IMPL:
                raise UnknownFunction(_byte_offset(self.text, tok.pos), tok.text)
            opener = self.advance()
            if opener.kind != "LPAREN":
                self.fail(opener, f"'(' after function name '{tok.text}'")
            arg = self.expr(depth + 1)
            closer = self.advance()
            if closer.kind != "RPAREN":
                self.fail(closer, "')'")
            return Unary(tok.text, arg)
        if tok.kind == "LPAREN":
            node = self.expr(depth + 1)
            closer = self.advance()
            if closer.kind != "RPAREN":
                self.fail(closer, "')'")
            return node
        self.fail(tok, _ATOM_EXPECTED)


def parse_expr(text) -> Expr:
    """Parse source text into an expression tree.

    Parameters
    ----------
    text : str or bytes
        UTF-8 source for the grammar in the module docstring.

    Returns
    -------
    Expr

    Raises
    ------
    ParseError
        On malformed input, with the byte offset of the failure and a
        description of what would have been accepted there.
    UnknownFunction
        For identifiers other than x and the supported function names.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(exc.start, "valid UTF-8") from None
    return _Parser(text).parse()


def eval_expr(e: Expr, x: float) -> float:
    """Evaluate an expression tree at a point, in IEEE-754 double arithmetic.

    Raises
    ------
    EvalError
        If any sub-expression leaves the finite reals: NaN or infinity,
        log or sqrt of a negative number, division by zero, or a negative
        base raised to a non-integer power. Its ``x`` is the point.
    """
    if isinstance(e, Const):
        value = e.value
    elif isinstance(e, Var):
        value = float(x)
    elif isinstance(e, Unary):
        arg = eval_expr(e.arg, x)
        if e.op == "neg":
            value = -arg
        else:
            try:
                value = _FUNC_IMPL[e.op](arg)
            except (ValueError, OverflowError) as exc:
                raise EvalError(f"{e.op}({arg!r}) is undefined: {exc}", x) from None
    elif isinstance(e, Binary):
        lhs = eval_expr(e.lhs, x)
        rhs = eval_expr(e.rhs, x)
        try:
            if e.op == "+":
                value = lhs + rhs
            elif e.op == "-":
                value = lhs - rhs
            elif e.op == "*":
                value = lhs * rhs
            elif e.op == "/":
                value = lhs / rhs
            else:
                value = math.pow(lhs, rhs)
        except ZeroDivisionError:
            raise EvalError(f"division by zero at x = {x!r}", x) from None
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{lhs!r} ^ {rhs!r} is undefined: {exc}", x) from None
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    if not math.isfinite(value):
        raise EvalError(f"non-finite intermediate value {value!r} at x = {x!r}", x)
    return value


class _NonFinite(Exception):
    """A block left the finite reals; eval_expr names where."""


def _pointwise(fn, *args: np.ndarray) -> np.ndarray:
    """Apply a scalar math function to each point, as eval_expr does.
    Iterating a memoryview yields the same Python floats as ``tolist``
    without building the list."""
    return np.fromiter(map(fn, *map(memoryview, args)), float, len(args[0]))


def _compile(trees, width: int) -> tuple[list, list[int]]:
    """The distinct subtrees of ``trees`` as one straight-line program over
    blocks of at most ``width`` points.

    Each step is ``(op, payload, args)``: args are the indices of earlier
    steps, and payload is the constant over a whole block for "const", the
    ufunc for the operations numpy rounds as Python does, or the math
    function applied point by point. Steps are found by hash-consing on the operator and the
    indices of the children, so a subtree that recurs, within one tree or
    across trees, is one step. Constants are keyed on their bits
    (``float.hex``), not on ``==``, which would merge 0.0 with -0.0. Returns
    the steps and the index of each tree's root.
    """
    steps, index = [], {}

    def visit(e) -> int:
        if isinstance(e, Const):
            key = ("const", float(e.value).hex())
            step = ("const", np.full(width, float(e.value)), ())
        elif isinstance(e, Var):
            key = step = ("x", None, ())
        elif isinstance(e, Unary):
            args = (visit(e.arg),)
            key = (e.op, args)
            if e.op in _ARRAY_UNARY:
                step = ("ufunc", _ARRAY_UNARY[e.op], args)
            else:
                step = ("math", _FUNC_IMPL[e.op], args)
        elif isinstance(e, Binary):
            args = (visit(e.lhs), visit(e.rhs))
            key = (e.op, args)
            if e.op == "^":
                step = ("math", math.pow, args)
            else:
                step = ("ufunc", _ARRAY_BINARY[e.op], args)
        else:
            raise TypeError(f"not an Expr node: {e!r}")
        if key not in index:
            index[key] = len(steps)
            steps.append(step)
        return index[key]

    return steps, [visit(tree) for tree in trees]


def _run_block(steps, xs: np.ndarray) -> list:
    """Every step's values over one block of points. No step's array is
    written after it is made, since later steps may share it."""
    values = []
    for op, payload, args in steps:
        if op == "x":
            value = xs
        elif op == "const":
            value = payload[:len(xs)]
        elif op == "ufunc":
            value = payload(*(values[i] for i in args))
        else:  # finite in, finite out, or the math function raises
            values.append(_pointwise(payload, *(values[i] for i in args)))
            continue
        if not np.isfinite(value).all():
            raise _NonFinite
        values.append(value)
    return values


def eval_arrays(trees, xs) -> list[np.ndarray]:
    """Evaluate expression trees at every point of a 1-D array.

    The trees are compiled into one program of their distinct subtrees
    (``_compile``), which runs once per block of EVAL_BLOCK points, so a
    subtree that several trees share, above all a ``sin cos exp log tanh``
    or ``^``, is evaluated once per point for all of them. Each value is
    bit-identical to ``eval_expr(tree, x)`` at the same point.

    Raises
    ------
    EvalError
        The error ``eval_expr`` raises at the first point of a failing
        block, for the first tree that fails there: a block that leaves the
        finite reals, or whose math call raises, is walked again point by
        point with ``eval_expr``. With several trees, that need not be the
        error the trees would raise one at a time; callers that must
        blame the first failing tree evaluate them one at a time on error.
    """
    xs = np.asarray(xs, dtype=float)
    steps, roots = _compile(trees, min(len(xs), EVAL_BLOCK))
    outs = [np.empty(len(xs)) for _ in roots]
    with np.errstate(all="ignore"):
        for start in range(0, len(xs), EVAL_BLOCK):
            block = xs[start:start + EVAL_BLOCK]
            try:
                values = _run_block(steps, block)
                rows = [values[root] for root in roots]
            except (_NonFinite, ValueError, OverflowError):
                points = block.tolist()
                rows = [[eval_expr(tree, x) for x in points] for tree in trees]
            for out, row in zip(outs, rows):
                out[start:start + len(block)] = row
    return outs


_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        v = float(e.value)
        text = repr(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
        if text == "0" and math.copysign(1.0, v) < 0.0:
            text = "-0"  # int() drops the sign; "-0" parses to -(0) = -0.0
        return text, _LEVEL_NEG if text.startswith("-") else _LEVEL_ATOM
    if isinstance(e, Var):
        return "x", _LEVEL_ATOM
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + _wrap(e.arg, _LEVEL_NEG), _LEVEL_NEG
        return f"{e.op}({_render(e.arg)[0]})", _LEVEL_ATOM
    if isinstance(e, Binary):
        if e.op in "+-":
            return f"{_wrap(e.lhs, _LEVEL_ADD)} {e.op} {_wrap(e.rhs, _LEVEL_MUL)}", _LEVEL_ADD
        if e.op in "*/":
            return _wrap(e.lhs, _LEVEL_MUL) + e.op + _wrap(e.rhs, _LEVEL_NEG), _LEVEL_MUL
        return _wrap(e.lhs, _LEVEL_ATOM) + "^" + _wrap(e.rhs, _LEVEL_NEG), _LEVEL_POW
    raise TypeError(f"not an Expr node: {e!r}")


def _wrap(e: Expr, min_level: int) -> str:
    text, level = _render(e)
    return f"({text})" if level < min_level else text


def to_text(e: Expr) -> str:
    """Render a tree back to source, with the minimal parentheses that
    reproduce the identical tree shape on re-parse."""
    return _render(e)[0]
