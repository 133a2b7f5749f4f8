"""Command-line frontend: solve, fundamental, and verify subcommands.

Exit codes: 0 success, 2 series not certified to converge (or term cap hit),
3 singular I2(x1), 4 bad input, 5 verification failure. Human-readable
messages go to standard error; machine output (JSON or CSV) to standard
output or --out. Output is deterministic for a fixed configuration: floats
are serialized with their shortest round-trip representation.

The node table is formatted in whole column slices: a JSON array is the
repr of the column's float list, a CSV table one %-format over its cells in
row order; scalars and nested objects go through json.dumps.

a and f are sampled together, at the nodes and at verify's RK4 midpoints,
as one program of their distinct subtrees (``grid.sample_together``,
``grid.evaluate_together``); on any error they are sampled one at a time,
a first, so every message and exit code is the one-at-a-time one.

Work that can run beside this process's own goes to one forked child at a
time (``_Child``), which sends its result back as bytes. verify forks the
RK4 oracle as soon as a and f are sampled and certified, and sums the
series and solves meanwhile; every command that renders float columns
forks the second half of the rows, while this process formats the first.
If a child fails, this process does its work itself, so an oracle error is
raised here with its usual exit code and message; if this process fails
first, it kills the child. Every child is reaped, and the bytes are the
same on every path.

``python -m bvpseries`` and the ``bvpseries`` script enter through
``entry``, which flushes stdout and stderr after ``main`` returns and ends
the process with ``os._exit``, skipping the interpreter's teardown; if a
flush fails it exits through ``sys.exit``. ``main`` itself returns the exit
code to in-process callers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import threading
from dataclasses import asdict, astuple, dataclass
from itertools import chain

import numpy as np

from .bvp import ProblemD, solve_problem_d
from .bvp import wronskian_check  # unused here; bench/traced_op.py looks it up on cli
from .checks import verify
from .errors import (
    ContractionViolation,
    Diverged,
    EvalError,
    InvalidDomain,
    MaxTermsExceeded,
    OracleSingular,
    ParseError,
    SingularI2,
    TableDomainError,
)
from .grid import (
    CoefficientSpec,
    SampledFn,
    evaluate_together,
    make_grid,
    sample_together,
    sup_norm,
)
from .oracle import OracleFundamental, compare, midpoints, oracle_fundamental
from .series_core import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    SeriesSolution,
    contraction_ratio,
    fundamental_system,
)

EXIT_OK = 0
EXIT_NOT_CONTRACTIVE = 2
EXIT_SINGULAR = 3
EXIT_BAD_INPUT = 4
EXIT_VERIFY_FAILED = 5

MAX_TERMS_ENV = "SOLVER_MAX_TERMS"


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs."""

    command: str
    a_spec: CoefficientSpec
    f_spec: CoefficientSpec
    x1: float
    alpha: float
    beta: float
    n: int
    tol: float
    output_format: str
    out: str | None
    max_terms: int


class _ArgumentParser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2 by default; we reserve 2
    for the convergence gate, so usage errors exit 4 instead.

    argparse reads ``-1`` as a value but ``-1e-3``, ``-x`` or ``-sin(x)`` as an
    unknown option; here any token with one leading '-' that is none of the
    parser's options is a value (argparse's negative-number matcher)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[^-]")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    a_group = common.add_mutually_exclusive_group(required=True)
    a_group.add_argument("--a", metavar="EXPR", help="coefficient a(x) as an expression")
    a_group.add_argument("--a-table", metavar="FILE", help="coefficient a(x) as a two-column CSV")
    f_group = common.add_mutually_exclusive_group(required=True)
    f_group.add_argument("--f", metavar="EXPR", help="forcing f(x) as an expression")
    f_group.add_argument("--f-table", metavar="FILE", help="forcing f(x) as a two-column CSV")
    common.add_argument("--x1", type=float, required=True, help="right endpoint of [0, x1]")
    common.add_argument("--alpha", type=float, default=0.0, help="u(0) (default 0)")
    common.add_argument("--beta", type=float, default=0.0, help="u'(x1) (default 0)")
    common.add_argument("--n", type=int, default=1024, help="grid intervals (default 1024)")
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="series tail tolerance (default 1e-10)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        dest="output_format", help="output format (default json)")
    common.add_argument("--out", metavar="FILE", help="write output here instead of stdout")

    parser = _ArgumentParser(
        prog="bvpseries",
        description="Series solver for u'' + a(x)u = f(x) on [0, x1] "
                    "with u(0) = alpha, u'(x1) = beta.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common],
                   help="solve the two-point problem and report diagnostics")
    sub.add_parser("fundamental", parents=[common],
                   help="emit the fundamental system I1, I2, F and derivatives")
    sub.add_parser("verify", parents=[common],
                   help="run the full verification suite, including the "
                        "independent integration oracle")
    return parser


def _spec_from_args(expr_text, table_path) -> CoefficientSpec:
    if expr_text is not None:
        return CoefficientSpec.expression(expr_text)
    return CoefficientSpec.from_csv(table_path)


def _max_terms_from_env() -> int:
    raw = os.environ.get(MAX_TERMS_ENV)
    if raw is None:
        return DEFAULT_MAX_TERMS
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidDomain(f"{MAX_TERMS_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InvalidDomain(f"{MAX_TERMS_ENV} must be >= 1, got {cap}")
    return cap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    for name in ("x1", "alpha", "beta", "tol"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise InvalidDomain(f"--{name} must be finite, got {value!r}")
    if args.tol <= 0:
        raise InvalidDomain(f"--tol must be positive, got {args.tol!r}")
    return RunConfig(
        command=args.command,
        a_spec=_spec_from_args(args.a, args.a_table),
        f_spec=_spec_from_args(args.f, args.f_table),
        x1=args.x1,
        alpha=args.alpha,
        beta=args.beta,
        n=args.n,
        tol=args.tol,
        output_format=args.output_format,
        out=args.out,
        max_terms=_max_terms_from_env(),
    )


def _prepare(config: RunConfig, certified=None):
    """Sample a and f, certify them and sum the series. ``certified(a, f)``,
    if given, is called between the certificate and the sums."""
    grid = make_grid(config.x1, config.n)
    a, f = sample_together((config.a_spec, config.f_spec), grid)
    cert = contraction_ratio(sup_norm(a), grid.x1)
    if certified is not None:
        certified(a, f)
    return fundamental_system(a, f, cert, tol=config.tol, max_terms=config.max_terms)


def _common_payload(config: RunConfig, sol: SeriesSolution) -> dict:
    return {
        "x1": float(config.x1),
        "n": int(config.n),
        "tol": float(config.tol),
        "q": sol.certificate.q,
        "terms": {name: sol.terms_used[name] for name in ("I1", "I2", "F")},
        "terms_apriori": {name: sol.terms_apriori[name] for name in ("I1", "I2", "F")},
        "tails": {name: sol.tail_bound[name] for name in ("I1", "I2", "F")},
        "i2_at_x1": sol.i2_at_x1,
    }


def _cmd_solve(config: RunConfig):
    sol = _prepare(config)
    code, message = EXIT_OK, None
    try:
        report = solve_problem_d(sol, ProblemD(config.alpha, config.beta))
    except SingularI2 as exc:
        report, code, message = exc.report, EXIT_SINGULAR, str(exc)
    u = None if report.u is None else report.u.values
    du = None if report.du is None else report.du.values
    payload = _common_payload(config, sol)
    payload.update({
        "c1": float(report.c1),
        "c2": float(report.c2),
        "nodes": sol.grid.nodes,
        "u": u,
        "du": du,
        "report": {
            "boundary_err": None if report.boundary_err is None
            else list(report.boundary_err),
            "residual_max": report.residual_max,
            "fixedpoint_err": report.fixedpoint_err,
            "wronskian_dev": report.wronskian_dev,
            "bound_checks": [asdict(c) for c in report.bound_checks],
        },
    })
    columns = () if u is None else (sol.grid.nodes, u, du)
    return payload, ("x,u,du", columns), code, message


_FUNDAMENTAL = ("I1", "I2", "F", "dI1", "dI2", "dF")


def _cmd_fundamental(config: RunConfig):
    sol = _prepare(config)
    columns = [sol.grid.nodes, *(getattr(sol, name).values for name in _FUNDAMENTAL)]
    payload = _common_payload(config, sol)
    payload.update(zip(("nodes", *_FUNDAMENTAL), columns))
    return payload, (",".join(("x", *_FUNDAMENTAL)), columns), EXIT_OK, None


def _cmd_verify(config: RunConfig):
    def shoot(a, f):
        # a and f at the midpoints, together; the oracle asks for each once
        am, fm = evaluate_together((config.a_spec, config.f_spec), midpoints(a.grid))
        return oracle_fundamental(a, f, a_eval=lambda mids: am, f_eval=lambda mids: fm)

    def shoot_bytes(a, f):
        oracle = shoot(a, f)
        return b"".join(getattr(oracle, name).values.tobytes() for name in _FUNDAMENTAL)

    with _Child() as child:
        sol = _prepare(config, lambda a, f: child.start(lambda: shoot_bytes(a, f)))
        report = solve_problem_d(sol, ProblemD(config.alpha, config.beta))
        shot = child.result()
    if shot is None:
        oracle = shoot(sol.a, sol.f)
    else:
        columns = np.frombuffer(shot).reshape(len(_FUNDAMENTAL), -1)
        oracle = OracleFundamental(**{name: SampledFn(sol.grid, col)
                                      for name, col in zip(_FUNDAMENTAL, columns)})
    max_rel_err = compare(sol, oracle)
    all_checks = verify(sol, report, max_rel_err, config.tol)
    overflowed = ", ".join(c.name for c in all_checks if not math.isfinite(c.limit))
    if overflowed:  # every limit grows with tol, fixed_point's with alpha and beta too
        ends = (f", --alpha = {config.alpha!r}, --beta = {config.beta!r}"
                if "fixed_point" in overflowed else "")
        raise InvalidDomain(f"the limit of {overflowed} overflows at --tol = {config.tol!r}{ends}")
    passed = all(c.passed for c in all_checks)
    payload = _common_payload(config, sol)
    payload.update({
        "alpha": float(config.alpha),
        "beta": float(config.beta),
        "max_rel_err": max_rel_err,
        "passed": passed,
        "checks": [asdict(c) for c in all_checks],
    })
    table = ("name,passed,value,limit", list(zip(*map(astuple, all_checks))))
    if passed:
        return payload, table, EXIT_OK, None
    failed = [c.name for c in all_checks if not c.passed]
    return payload, table, EXIT_VERIFY_FAILED, (
        f"verification failed: {len(failed)} of {len(all_checks)} checks: "
        + ", ".join(failed)
    )


_COMMANDS = {"solve": _cmd_solve, "fundamental": _cmd_fundamental, "verify": _cmd_verify}


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _json_rows(columns, lo: int, hi: int) -> list[str]:
    """Rows lo..hi of each column as the items of an indented JSON array:
    repr of a float list is the shortest round-trip form json writes."""
    return [repr(col[lo:hi].tolist())[1:-1].replace(", ", ",\n    ") for col in columns]


def _csv_rows(columns, lo: int, hi: int) -> list[str]:
    """Rows lo..hi of a table as CSV lines, every cell printed as ``str``."""
    slices = [col[lo:hi] for col in columns]
    cells = chain.from_iterable(zip(*(s.tolist() if isinstance(s, np.ndarray) else s
                                      for s in slices)))
    rows = len(slices[0]) if slices else 0
    return [(("%s," * (len(slices) - 1) + "%s\n") * rows) % tuple(cells)]


class _Child:
    """At most one forked child that computes bytes for this process.

    ``start(work)`` forks when ``os.fork`` exists, the process may run on
    two or more CPUs and no other Python thread runs (a fork copies only the
    calling thread); otherwise it does nothing. The child writes what
    ``work()`` returns to a pipe and always leaves through ``os._exit``,
    with code 1 if ``work`` raised. ``result()`` reads the pipe and reaps
    the child: it returns the bytes, or None when no child ran or it
    failed, and the caller then does the work itself. Leaving the ``with``
    block before ``result()`` kills and reaps the child.
    """

    pid = None

    def start(self, work) -> None:
        if not (hasattr(os, "fork") and _available_cpus() >= 2
                and threading.active_count() == 1):
            return
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            return
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as pipe:
                    pipe.write(work())
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self.pid, self._pipe = pid, open(read_fd, "rb")

    def result(self) -> bytes | None:
        if self.pid is None:
            return None
        try:
            data = self._pipe.read()
        finally:
            code = self._reap()
        return data if code == 0 else None

    def _reap(self) -> int:
        self._pipe.close()
        pid, self.pid = self.pid, None
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:
            import signal  # only on this failure path: its import costs about 1 ms

            os.kill(self.pid, signal.SIGKILL)
            self._reap()


def _format_halves(fmt, columns) -> tuple[list[str], list[str]]:
    """``fmt`` applied to the first and the second half of the rows.

    When the columns are all float arrays, the second half is formatted in
    a ``_Child``, whose pieces come back joined by NUL (which no float
    prints); if there is no child, this process formats that half too.
    """
    rows = max(map(len, columns), default=0)
    mid = rows // 2
    with _Child() as child:
        if columns and all(isinstance(c, np.ndarray) and c.dtype.kind == "f"
                           for c in columns):
            child.start(lambda: "\0".join(fmt(columns, mid, rows)).encode())
        first = fmt(columns, 0, mid)
        second = child.result()
    if second is None:
        return first, fmt(columns, mid, rows)
    return first, second.decode().split("\0")


def _render(payload: dict, table: tuple, output_format: str) -> str:
    """Serialize a payload as JSON, or as CSV: '# key = value' lines for the
    payload's scalars (nested objects flattened one level, arrays left out),
    then the table's header and rows.

    ``table`` is a header line and its columns (ndarrays or sequences). The
    float columns (the payload's ndarrays for JSON, the table for CSV) are
    formatted in whole slices by ``_format_halves``. They hold grid nodes or
    SampledFn values: finite, so no nan or inf reaches the JSON, and at
    least three rows (n >= 2), so neither half is empty. Everything else in
    the JSON goes through ``json.dumps``. The text is built by one join.
    """
    if output_format == "json":
        arrays = [value for value in payload.values() if isinstance(value, np.ndarray)]
        halves = zip(*_format_halves(_json_rows, arrays))
        parts = []
        for key, value in payload.items():
            parts += [",\n  " if parts else "{\n  ", json.dumps(key), ": "]
            if not isinstance(value, np.ndarray):
                parts.append(json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  "))
                continue
            first, second = next(halves)
            parts += ["[\n    ", first, ",\n    ", second, "\n  ]"]
        parts.append("\n}\n")
        return "".join(parts)
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines += [f"# {key}_{sub} = {subval}" for sub, subval in value.items()
                      if not isinstance(subval, list)]
        elif isinstance(value, (int, float)):
            lines.append(f"# {key} = {value}")
    header, columns = table
    lines.append(header)
    first, second = _format_halves(_csv_rows, columns)
    return "".join(["\n".join(lines), "\n", *first, *second])


def run(config: RunConfig) -> tuple[int, str | None]:
    """Execute one configured command.

    Returns the exit code and the serialized output (None when the failure
    precedes any result). Messages for non-zero codes go to stderr here.
    """
    try:
        payload, table, code, message = _COMMANDS[config.command](config)
    except (ContractionViolation, MaxTermsExceeded) as exc:
        print(f"bvpseries: {exc}", file=sys.stderr)
        return EXIT_NOT_CONTRACTIVE, None
    except SingularI2 as exc:
        print(f"bvpseries: {exc}", file=sys.stderr)
        return EXIT_SINGULAR, None
    except (ParseError, TableDomainError, InvalidDomain, EvalError, OSError) as exc:
        print(f"bvpseries: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT, None
    except (OracleSingular, Diverged) as exc:
        print(f"bvpseries: verification aborted: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED, None
    if message is not None:
        print(f"bvpseries: {message}", file=sys.stderr)
    return code, _render(payload, table, config.output_format)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (ParseError, TableDomainError, InvalidDomain, OSError) as exc:
        print(f"bvpseries: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    code, text = run(config)
    if text is not None:
        if config.out is not None:
            try:
                with open(config.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"bvpseries: cannot write {config.out}: {exc}", file=sys.stderr)
                return EXIT_BAD_INPUT
        else:
            sys.stdout.write(text)
    return code


def entry() -> None:
    """Process entry point of ``python -m bvpseries`` and the ``bvpseries``
    script: run ``main``, flush stdout and stderr, and end the process with
    ``os._exit``, skipping the interpreter's teardown (about 30 ms with numpy
    loaded), which has nothing left to do: every output is written and
    every child reaped. If a flush raises (say, the reader closed the pipe),
    the process exits through ``sys.exit`` instead, as it always did.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
