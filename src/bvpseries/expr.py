"""Parsing and evaluation of the coefficient expression language.

The language is a single-variable arithmetic grammar over ``x``:

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | "x" | IDENT "(" expr ")" | "(" expr ")"

with IDENT one of sin, cos, exp, log, sqrt, abs, tanh. Numbers are decimal
literals of ASCII digits with an optional exponent; a digit of another
script is not one. ``^`` is right-associative and binds tighter than unary
minus; whitespace is insignificant. A tree is at most ``_MAX_DEPTH`` levels
deep, each operator of a chain counting as one, so that every recursive
walk of it stays within Python's default recursion limit.

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

# Each operation: the Python float operation, and the numpy ufunc that rounds
# exactly as it does (IEEE-754 requires correct rounding for it), or None.
# The operations without one go through the math module point by point:
# numpy's exp, tanh, log and power differ from libm in the last bit at some
# points.
_OPS = {
    "sin": (math.sin, None),
    "cos": (math.cos, None),
    "exp": (math.exp, None),
    "log": (math.log, None),
    "sqrt": (math.sqrt, np.sqrt),
    "abs": (abs, np.abs),
    "tanh": (math.tanh, None),
    "neg": (operator.neg, np.negative),
    "+": (operator.add, np.add),
    "-": (operator.sub, np.subtract),
    "*": (operator.mul, np.multiply),
    "/": (operator.truediv, np.divide),
    "^": (math.pow, None),
}

# The names a call can spell: every lettered operation but unary minus.
FUNCTIONS = tuple(op for op in _OPS if op.isalpha() and op != "neg")

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


# One pattern for every token kind, a named group each, after optional
# whitespace. DOT and BAD match where no token does: a "." that starts no
# number (a digit always starts one), and anything else.
_TOKEN = re.compile(r"""\s*(?:
    (?P<NUM>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<OP>[-+*/^]) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<EOF>\Z)
  | (?P<DOT>\.) | (?P<BAD>)
)""", re.VERBOSE)

_NOT_A_TOKEN = {"DOT": "a numeric literal",
                "BAD": "a number, 'x', a function name, an operator, or a parenthesis"}

# The left-associative levels, loosest first. Each chains operands of the
# next level; the last chains factors.
_CHAINS = ("+-", "*/")


class _Token(Record):
    """A token: its ``kind`` (NUM IDENT OP LPAREN RPAREN EOF), its ``text``,
    and ``pos``, its character index into the source."""

    __slots__ = ("kind", "text", "pos")


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind in _NOT_A_TOKEN:
            raise ParseError(_byte_offset(text, m.start(kind)), _NOT_A_TOKEN[kind])
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        if kind == "EOF":
            return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def advance(self) -> _Token:
        """The next token, consumed. No token is read after EOF: a parse
        that consumes it ends, or fails there."""
        self.i += 1
        return self.tokens[self.i - 1]

    def take(self, ops: str) -> str | None:
        """The next token's text, consumed, if it is one of the operators
        ``ops``; else None."""
        tok = self.tokens[self.i]
        if tok.kind == "OP" and tok.text in ops:
            self.i += 1
            return tok.text
        return None

    def expect(self, kind: str, expected: str) -> None:
        """Consume the next token, which must be of ``kind``."""
        tok = self.advance()
        if tok.kind != kind:
            self.fail(tok, expected)

    def fail(self, tok: _Token, expected: str):
        raise ParseError(_byte_offset(self.text, tok.pos), expected)

    def parse(self) -> Expr:
        node, _ = self.chain(0)
        self.expect("EOF", "end of input or an operator")
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
            self.fail(self.tokens[self.i], "a shallower expression (nesting limit reached)")
        return height + 1

    def chain(self, depth: int, level: int = 0) -> tuple[Expr, int]:
        """A chain of the operators ``_CHAINS[level]``. The partial adds no
        Python frame, so nested parentheses take five a level."""
        last = level + 1 == len(_CHAINS)
        operand = self.factor if last else partial(self.chain, level=level + 1)
        node, height = operand(depth)
        while op := self.take(_CHAINS[level]):
            rhs, rhs_height = operand(depth + 1)
            node, height = Binary(op, node, rhs), self.deeper(depth, max(height, rhs_height))
        return node, height

    def factor(self, depth: int) -> tuple[Expr, int]:
        self.deeper(depth, 0)
        if self.take("-"):
            arg, height = self.factor(depth + 1)
            return Unary("neg", arg), height + 1
        return self.power(depth)

    def power(self, depth: int) -> tuple[Expr, int]:
        base, height = self.atom(depth)
        if self.take("^"):
            exponent, exponent_height = self.factor(depth + 1)
            return Binary("^", base, exponent), self.deeper(depth, max(height, exponent_height))
        return base, height

    def atom(self, depth: int) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "NUM":
            return Const(float(tok.text)), 1
        if tok.kind == "IDENT" and tok.text == "x":
            return Var(), 1
        if tok.kind == "IDENT":
            if tok.text not in FUNCTIONS:
                raise UnknownFunction(_byte_offset(self.text, tok.pos), tok.text)
            self.expect("LPAREN", f"'(' after function name '{tok.text}'")
        elif tok.kind != "LPAREN":
            self.fail(tok, "a number, 'x', a function call, or '('")
        node, height = self.chain(depth + 1)
        self.expect("RPAREN", "')'")
        if tok.kind == "IDENT":
            node = Unary(tok.text, node)
        return node, height + 1


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
    constant for "const", None for "x", else the operator's row of
    ``_OPS``: its Python float operation and its ufunc. Steps are found
    by hash-consing on the operator and the indices of the children, so a
    subtree that recurs, within one tree or across trees, is one step.
    Constants are keyed on their bits (``float.hex``), not on ``==``, which
    would merge 0.0 with -0.0. Returns the steps and, for each tree, the
    steps it runs in its post-order, each once, so its root is its last.
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
            step = (e.op, _OPS[e.op], args)
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
        elif payload[1] is not None:
            payload[1](*(values[i] for i in args), out=row)
        else:
            row[:] = _pointwise(payload[0], *(values[i] for i in args))
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
    op, payload, args = steps[step]
    x = float(xs[point])
    operands = [float(values[i, point]) for i in args]
    try:
        value = payload[0](*operands) if args else float(values[step, point])
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
