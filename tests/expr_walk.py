"""Node-by-node expression walk: the reference the block program must match.

``walk`` evaluates a tree at one point by recursion, each node with the
Python float operation or the ``math`` function of its operator, and
raises at the first node, in post-order, that leaves the finite reals. It
shares no code with ``bvpseries.expr``'s program, so the tests hold the
program's bits, messages and failing points to it. ``sample_alone``
samples one spec onto a grid by this walk.
"""

import math

import numpy as np

from bvpseries.errors import EvalError, TableDomainError
from bvpseries.expr import Binary, Const, Unary, Var

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "tanh": math.tanh,
}


def walk(e, x: float) -> float:
    """The value of ``e`` at ``x``, or the EvalError of its first failing node."""
    if isinstance(e, Const):
        value = e.value
    elif isinstance(e, Var):
        value = float(x)
    elif isinstance(e, Unary):
        arg = walk(e.arg, x)
        if e.op == "neg":
            value = -arg
        else:
            try:
                value = FUNCTIONS[e.op](arg)
            except (ValueError, OverflowError) as exc:
                raise EvalError(f"{e.op}({arg!r}) is undefined: {exc}", x) from None
    elif isinstance(e, Binary):
        lhs = walk(e.lhs, x)
        rhs = walk(e.rhs, x)
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


def sample_alone(spec, grid) -> np.ndarray:
    """Sampling ``spec`` alone onto ``grid`` by the walk: its node values,
    or the TableDomainError or EvalError, message and failing node, that
    ``grid.sample`` raises."""
    if spec._table is not None:
        xs, values = spec._table
        if xs[0] > 0.0 or xs[-1] < grid.x1:
            raise TableDomainError(
                f"{spec.source}: table spans [{xs[0]}, {xs[-1]}] but must cover [0, {grid.x1}]")
        return np.interp(grid.nodes, xs, values)
    out = []
    for x in grid.nodes.tolist():
        try:
            out.append(walk(spec._expr, x))
        except EvalError as exc:
            raise EvalError(f"{spec.source!r} at x = {x}: {exc}", x) from None
    return np.array(out)
