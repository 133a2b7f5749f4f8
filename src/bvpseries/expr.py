"""Parsing and evaluation of the coefficient expression language.

The language is a single-variable arithmetic grammar over ``x``:

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | "x" | IDENT "(" expr ")" | "(" expr ")"

with IDENT one of sin, cos, exp, log, sqrt, abs, tanh. Numbers are decimal
literals with an optional exponent. ``^`` is right-associative and binds
tighter than unary minus; whitespace is insignificant. A tree is at most
``_MAX_DEPTH`` levels deep, each operator of a chain counting as one, so
that every recursive walk of it stays within Python's default recursion
limit.

Nothing in the package changes a parsed tree after it is built, and
evaluation is pure, so a single Expr can be evaluated concurrently from many
threads. Trees compare and hash by structure (``Expr.__eq__``).

There is one evaluator. ``eval_arrays`` evaluates one or more trees over
an array of points, and ``eval_expr`` is its one-point call. It compiles
the trees into one straight-line program of their distinct subtrees
(hash-consing on the operator and the children's step numbers, constants
on their bits), so a subtree the trees share runs once per point for all
of them: with f = u'' + a*u, each sin, cos or exp of a and of u runs once,
not twice. ``+ - * /``, unary minus, ``abs`` and ``sqrt`` run as numpy
ufuncs, which round as the Python float operations do; the other
functions and ``^`` are "math" steps, which call the ``math`` function
point by point. So every value is, bit for bit, what a walk of the tree
node by node in Python floats and ``math`` gives. A block that leaves the
finite reals names each failing tree's error from its own values: the
tree's first failing point, and there the first failing sub-expression in
the tree's post-order, where that walk would stop.
"""

from __future__ import annotations

import math
import operator
import re
from functools import partial

import numpy as np

from ._record import Record
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

# The Python float operation of each operator, as a function.
_OPERATORS = {"neg": operator.neg, "+": operator.add, "-": operator.sub,
              "*": operator.mul, "/": operator.truediv, "^": math.pow}

# Operations whose numpy ufunc rounds exactly as the Python float operation
# does (IEEE-754 requires correct rounding for them). The other functions and
# ^ go through the math module point by point: numpy's exp, tanh, log and
# power differ from libm in the last bit at some points.
_UFUNCS = {"neg": np.negative, "abs": np.abs, "sqrt": np.sqrt,
           "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

# Points per block of the program; keeps each step's row at 32 KiB.
EVAL_BLOCK = 4096

_MAX_DEPTH = 100


class Expr(Record):
    """Base class for expression tree nodes.

    A node's fields are its ``__slots__``, set by ``Record``'s constructor.
    Two nodes are equal when they are of the same class and their fields
    are equal, children compared the same way, so two trees are equal
    exactly when they are the same tree; equal trees hash alike.
    ``Const(0.0) == Const(-0.0)``, as for the floats.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((self.__class__, self._fields()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Const(Expr):
    """A numeric literal: ``value``, a float."""

    __slots__ = ("value",)


class Var(Expr):
    """The free variable x."""

    __slots__ = ()


class Unary(Expr):
    """``op`` ("neg" or a name from FUNCTIONS) applied to the node ``arg``."""

    __slots__ = ("op", "arg")


class Binary(Expr):
    """``op`` (one of + - * / ^) applied to the nodes ``lhs`` and ``rhs``."""

    __slots__ = ("op", "lhs", "rhs")


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_SPACE = re.compile(r"\s*")

_ATOM_EXPECTED = "a number, 'x', a function call, or '('"


class _Token(Record):
    """A token: its ``kind`` (NUM IDENT OP LPAREN RPAREN EOF), its ``text``,
    and ``pos``, its character index into the source."""

    __slots__ = ("kind", "text", "pos")


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
        node, _ = self.expr(0)
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail(tok, "end of input or an operator")
        return node

    # Each method parses a subtree that sits ``depth`` levels below the
    # root and returns it with its height, so that depth + height never
    # exceeds _MAX_DEPTH. A level is an operator, a function call, a unary
    # minus or a pair of parentheses. The chains (a + b - c) group to the
    # left, so each operator puts the operands before it a level further
    # down: it adds a level to the chain's height, and the operand after it
    # is parsed a level deeper.

    def deeper(self, depth: int, height: int) -> int:
        """The height of a node over subtrees at most ``height`` high, at
        ``depth``; fails at the next token if that passes the limit."""
        if depth + height >= _MAX_DEPTH:
            self.fail(self.peek(), "a shallower expression (nesting limit reached)")
        return height + 1

    def expr(self, depth: int) -> tuple[Expr, int]:
        node, height = self.term(depth)
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            rhs, rhs_height = self.term(depth + 1)
            node, height = Binary(op, node, rhs), self.deeper(depth, max(height, rhs_height))
        return node, height

    def term(self, depth: int) -> tuple[Expr, int]:
        node, height = self.factor(depth)
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            rhs, rhs_height = self.factor(depth + 1)
            node, height = Binary(op, node, rhs), self.deeper(depth, max(height, rhs_height))
        return node, height

    def factor(self, depth: int) -> tuple[Expr, int]:
        self.deeper(depth, 0)
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            arg, height = self.factor(depth + 1)
            return Unary("neg", arg), height + 1
        return self.power(depth)

    def power(self, depth: int) -> tuple[Expr, int]:
        base, height = self.atom(depth)
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            exponent, exponent_height = self.factor(depth + 1)
            return Binary("^", base, exponent), self.deeper(depth, max(height, exponent_height))
        return base, height

    def atom(self, depth: int) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "NUM":
            return Const(float(tok.text)), 1
        if tok.kind == "IDENT":
            if tok.text == "x":
                return Var(), 1
            if tok.text not in _FUNC_IMPL:
                raise UnknownFunction(_byte_offset(self.text, tok.pos), tok.text)
            opener = self.advance()
            if opener.kind != "LPAREN":
                self.fail(opener, f"'(' after function name '{tok.text}'")
            arg, height = self.expr(depth + 1)
            closer = self.advance()
            if closer.kind != "RPAREN":
                self.fail(closer, "')'")
            return Unary(tok.text, arg), height + 1
        if tok.kind == "LPAREN":
            node, height = self.expr(depth + 1)
            closer = self.advance()
            if closer.kind != "RPAREN":
                self.fail(closer, "')'")
            return node, height + 1
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
    """Evaluate an expression tree at a point, in IEEE-754 double arithmetic:
    the one-point call of ``eval_arrays``.

    Raises
    ------
    EvalError
        If any sub-expression leaves the finite reals: NaN or infinity,
        log or sqrt of a negative number, division by zero, or a negative
        base raised to a non-integer power. Its ``x`` is the point.
    """
    return float(eval_arrays([e], [x])[0][0])


def _or_nan(fn, *args) -> float:
    """``fn(*args)``, or NaN where it raises."""
    try:
        return fn(*args)
    except (ValueError, OverflowError):
        return math.nan


def _pointwise(fn, *args: np.ndarray) -> np.ndarray:
    """Apply a scalar math function to each point, NaN where it raises.
    Iterating a memoryview yields the same Python floats as ``tolist``
    without building the list."""
    views = [memoryview(arg) for arg in args]
    try:
        return np.fromiter(map(fn, *views), float, len(args[0]))
    except (ValueError, OverflowError):
        return np.fromiter(map(partial(_or_nan, fn), *views), float, len(args[0]))


def _compile(trees) -> tuple[list, list[list[int]]]:
    """The distinct subtrees of ``trees`` as one straight-line program.

    Each step is ``(op, payload, args)``: op is "x", "const" or the node's
    operator, args are the indices of earlier steps, and payload is the
    constant for "const", None for "x", else the Python float operation
    the step computes (``_FUNC_IMPL`` or ``_OPERATORS``). Steps are found
    by hash-consing on the operator and the indices of the children, so a
    subtree that recurs, within one tree or across trees, is one step. Constants are keyed on their bits (``float.hex``), not on
    ``==``, which would merge 0.0 with -0.0. Returns the steps and, for
    each tree, the steps it runs in its post-order, each once, so its root
    is its last.
    """
    steps, index = [], {}

    def visit(e, order: list) -> int:
        if isinstance(e, Const):
            key = ("const", float(e.value).hex())
            step = ("const", float(e.value), ())
        elif isinstance(e, Var):
            key = step = ("x", None, ())
        elif isinstance(e, (Unary, Binary)):
            children = (e.arg,) if isinstance(e, Unary) else (e.lhs, e.rhs)
            args = tuple([visit(child, order) for child in children])
            key = (e.op, args)
            step = (e.op, _FUNC_IMPL.get(e.op) or _OPERATORS[e.op], args)
        else:
            raise TypeError(f"not an Expr node: {e!r}")
        if key not in index:
            index[key] = len(steps)
            steps.append(step)
        order.append(index[key])
        return index[key]

    orders = []
    for tree in trees:
        visit(tree, order := [])
        orders.append(list(dict.fromkeys(order)))
    return steps, orders


def _run_block(steps, xs: np.ndarray) -> np.ndarray:
    """Every step's values over one block of points, a row per step, not
    finite where the step leaves the finite reals."""
    values = np.empty((len(steps), len(xs)))
    for row, (op, payload, args) in zip(values, steps):
        if op == "x":
            row[:] = xs
        elif op == "const":
            row[:] = payload
        elif op in _UFUNCS:
            _UFUNCS[op](*(values[i] for i in args), out=row)
        else:
            row[:] = _pointwise(payload, *(values[i] for i in args))
    return values


def _failure(steps, failing: list[int], values: np.ndarray, finite: np.ndarray,
             xs: np.ndarray) -> EvalError:
    """The error of a tree whose steps ``failing``, in its post-order, are
    not finite somewhere in the block. A walk of the tree stops at its
    first failing point, at the first of these steps not finite there,
    whose operands are finite; one scalar call of its operation names it.
    """
    point = int(np.argmin(finite[failing].all(axis=0)))
    step = next(i for i in failing if not finite[i, point])
    op, fn, args = steps[step]
    x = float(xs[point])
    operands = [float(values[i, point]) for i in args]
    try:
        value = fn(*operands) if args else float(values[step, point])
    except ZeroDivisionError:
        return EvalError(f"division by zero at x = {x!r}", x)
    except (ValueError, OverflowError) as exc:
        call = f"{op}({operands[0]!r})" if len(args) == 1 else f"{operands[0]!r} ^ {operands[1]!r}"
        return EvalError(f"{call} is undefined: {exc}", x)
    return EvalError(f"non-finite intermediate value {value!r} at x = {x!r}", x)


def _eval_each(trees, xs) -> list:
    """Each tree's values at every point of the 1-D array ``xs``, or the
    EvalError that evaluating that tree alone raises.

    The trees are compiled into one program of their distinct subtrees
    (``_compile``), which runs once per block of EVAL_BLOCK points. A tree
    that leaves the finite reals in a block gets the error of its first
    failing point there (``_failure``), and no later block changes it.
    """
    xs = np.asarray(xs, dtype=float)
    steps, orders = _compile(trees)
    outs = [np.empty(len(xs)) for _ in orders]
    with np.errstate(all="ignore"):
        for start in range(0, len(xs), EVAL_BLOCK):
            block = xs[start:start + EVAL_BLOCK]
            values = _run_block(steps, block)
            finite = np.isfinite(values)
            bad = ~finite.all(axis=1)
            for t, order in enumerate(orders):
                if isinstance(outs[t], EvalError):
                    continue
                failing = [i for i in order if bad[i]]
                if failing:
                    outs[t] = _failure(steps, failing, values, finite, block)
                else:
                    outs[t][start:start + len(block)] = values[order[-1]]
    return outs


def eval_arrays(trees, xs) -> list[np.ndarray]:
    """Evaluate expression trees at every point of a 1-D array.

    The trees run as one program of their distinct subtrees
    (``_compile``), once per block of EVAL_BLOCK points, so a subtree that
    several trees share, above all a ``sin cos exp log tanh`` or ``^``, is
    evaluated once per point for all of them. Each value is what the
    Python float operations and the ``math`` functions give, subtree by
    subtree, at that point.

    Raises
    ------
    EvalError
        The error that evaluating the trees one at a time would raise: that
        of the first failing tree, at its first failing point, for the
        first failing sub-expression there in the tree's post-order.
    """
    outs = _eval_each(trees, xs)
    for out in outs:
        if isinstance(out, EvalError):
            raise out
    return outs


_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        v = float(e.value)
        if math.isnan(v):
            raise ValueError("a NaN constant has no literal")
        text = repr(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
        text = text.replace("inf", "1e999")  # a literal that overflows back to it
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
    reproduce the identical tree shape on re-parse. A NaN constant, which
    no literal of the grammar gives, raises ``ValueError``."""
    return _render(e)[0]
