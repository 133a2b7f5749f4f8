"""Command-line frontend: solve, fundamental, and verify subcommands.

Exit codes: 0 success, 2 series not certified to converge (or term cap hit),
4 bad input, 5 verification failure (3 is no longer produced). Human-readable
messages go to standard error; machine output (JSON or CSV) to standard
output or --out. Output is deterministic for a fixed configuration: floats
are serialized with their shortest round-trip representation.

Node columns are formatted in this process by ``shortest.rows``, a
vectorised Dragonbox kernel whose bytes are those of repr for every finite
float, and which cuts them into blocks and yields each block's text; this
module writes only the JSON and CSV syntax around that text. A JSON
array is its items joined by ",\n    ", a CSV table of float columns its
cells in row order, each followed by ',' or a newline. verify's check
list (names, flags and floats) is joined row by row with ``str``; scalars
and nested objects go through json.dumps. The kernel is imported only to
render float columns.
The payload is ASCII bytes: ``main`` writes each block, as it is
formatted, to one binary sink, file descriptor 1 or --out, so the whole
text is never held and no stream encoding or newline translation touches
it; ``run`` joins the blocks and decodes them once for in-process callers
that want the text.

a and f are sampled together, at the grid nodes, as one program of their
distinct subtrees (``grid.sample_together``). That one run names its own
errors, a's before f's, so every message and exit code is the one that
sampling a and then f one at a time would give. verify's RK4 oracle steps
on node pairs, so it needs no samples beyond the nodes; it runs in this
process, after the series and before the solve.

Every failure that ends a run before any output has its exit code and
message in ``_fail``, and every ``bvpseries:`` line goes through ``_say``,
which drops it if stderr is missing or cannot be written: stderr never
changes the exit code or the payload.

``python -m bvpseries`` and the ``bvpseries`` script enter through
``bvpseries.__main__``, which sets the process's heap policy before this
module (and numpy) is imported, runs ``main`` and exits with its code;
this module keeps only the command line.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys

import numpy as np

from .bvp import ProblemD, solve_problem_d
# wronskian_check is unused here; bench/traced_op.py looks it up on cli
from .checks import Check, overflowing, overflowing_at_every_tol, verify, wronskian_check
from .errors import (
    ContractionViolation,
    Diverged,
    InvalidDomain,
    MaxTermsExceeded,
    OracleSingular,
    SolverError,
)
from .grid import CoefficientSpec, make_grid, sample_together, sup_norm
from .oracle import compare, oracle_fundamental
from .series_core import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    contraction_ratio,
    fundamental_system,
    scan_or_sum,
)

EXIT_OK = 0
EXIT_NOT_CONTRACTIVE = 2
EXIT_BAD_INPUT = 4
EXIT_VERIFY_FAILED = 5


class _Help(Exception):
    """-h or --help was given; ``args[0]`` is the help text."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2 by default; we reserve 2
    for the convergence gate, so usage errors exit 4 instead. The help text
    is not printed to ``sys.stdout`` but raised as ``_Help``, and ``main``
    writes it to its one sink, so a stdout that cannot take it is exit 4,
    as for any output.

    argparse reads ``-1`` as a value but ``-1e-3``, ``-x`` or ``-sin(x)`` as an
    unknown option; here any token with one leading '-' that is none of the
    parser's options is a value (argparse's negative-number matcher)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[^-]")

    def error(self, message):
        _say(f"{self.format_usage()}{self.prog}: error: {message}\n")
        sys.exit(EXIT_BAD_INPUT)

    def print_help(self, file=None):
        raise _Help(self.format_help())


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


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed arguments and add ``a_spec``, ``f_spec`` and
    ``max_terms`` to them; returns ``args``. Every run sums with the
    library's cap, ``DEFAULT_MAX_TERMS``."""
    for name in ("x1", "alpha", "beta", "tol"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise InvalidDomain(f"--{name} must be finite, got {value!r}")
    if args.tol <= 0:
        raise InvalidDomain(f"--tol must be positive, got {args.tol!r}")
    args.a_spec = _spec_from_args(args.a, args.a_table)
    args.f_spec = _spec_from_args(args.f, args.f_table)
    args.max_terms = DEFAULT_MAX_TERMS  # unused here; bench/traced_op.py passes it
    return args


def _prepare(config: argparse.Namespace):
    """Sample a and f, certify them and find the series limits: summed for
    verify, whose rounding floors are derived for summed terms, and
    scanned or summed (``scan_or_sum``) for solve and fundamental."""
    grid = make_grid(config.x1, config.n)
    a, f = sample_together((config.a_spec, config.f_spec), grid)
    cert = contraction_ratio(sup_norm(a), grid.x1)
    if config.command == "verify":
        return fundamental_system(a, f, cert, tol=config.tol)
    return scan_or_sum(a, f, cert, tol=config.tol)


def _common_payload(config: argparse.Namespace, sol) -> dict:
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


def _cmd_solve(config: argparse.Namespace):
    sol = _prepare(config)
    report = solve_problem_d(sol, ProblemD(config.alpha, config.beta))
    overflowed = overflowing(report.bound_checks)
    if overflowed:  # no bound limit has a term in tol
        raise InvalidDomain(_overflow_message(config, sol, overflowed, overflowed))
    u, du = report.u.values, report.du.values
    payload = _common_payload(config, sol)
    payload.update({
        "c1": float(report.c1),
        "c2": float(report.c2),
        "nodes": sol.grid.nodes,
        "u": u,
        "du": du,
        "report": {
            "boundary_err": list(report.boundary_err),
            "residual_max": report.residual_max,
            "fixedpoint_err": report.fixedpoint_err,
            "wronskian_dev": report.wronskian_dev,
            "bound_checks": [_check_dict(c) for c in report.bound_checks],
        },
    })
    return payload, ("x,u,du", (sol.grid.nodes, u, du)), EXIT_OK, None


def _check_dict(check: Check) -> dict:
    return {name: getattr(check, name) for name in Check.__slots__}


_FUNDAMENTAL = ("I1", "I2", "F", "dI1", "dI2", "dF")


def _cmd_fundamental(config: argparse.Namespace):
    sol = _prepare(config)
    columns = [sol.grid.nodes, *(getattr(sol, name).values for name in _FUNDAMENTAL)]
    payload = _common_payload(config, sol)
    payload.update(zip(("nodes", *_FUNDAMENTAL), columns))
    return payload, (",".join(("x", *_FUNDAMENTAL)), columns), EXIT_OK, None


def _cmd_verify(config: argparse.Namespace):
    sol = _prepare(config)
    # The oracle reads neither alpha nor beta, so it runs, and its arrays are
    # freed, before u and u' exist; its failure (exit 5) waits for the
    # solve's (exit 4), which it would follow if it ran after the solve.
    try:
        max_rel_err, shot_failed = compare(sol, oracle_fundamental(sol.a, sol.f)), None
    except (OracleSingular, Diverged) as exc:
        shot_failed = exc
    report = solve_problem_d(sol, ProblemD(config.alpha, config.beta))
    if shot_failed is not None:
        raise shot_failed
    all_checks = verify(sol, report, max_rel_err, config.tol)
    overflowed = overflowing(all_checks)
    if overflowed:
        scaled = overflowing_at_every_tol(sol, report, max_rel_err)
        raise InvalidDomain(_overflow_message(config, sol, overflowed, scaled))
    passed = all(c.passed for c in all_checks)
    payload = _common_payload(config, sol)
    payload.update({
        "alpha": float(config.alpha),
        "beta": float(config.beta),
        "max_rel_err": max_rel_err,
        "passed": passed,
        "checks": [_check_dict(c) for c in all_checks],
    })
    table = (",".join(Check.__slots__),
             [tuple(getattr(c, name) for c in all_checks) for name in Check.__slots__])
    if passed:
        return payload, table, EXIT_OK, None
    failed = [c.name for c in all_checks if not c.passed]
    return payload, table, EXIT_VERIFY_FAILED, (
        f"verification failed: {len(failed)} of {len(all_checks)} checks: "
        + ", ".join(failed)
    )


def _overflow_message(config, sol, overflowed, scaled) -> str:
    """Why the check limits ``overflowed`` overflow. Those of ``scaled``
    overflow with no term in tol: the problem's scale (h, the sups of a, f
    and the series, and for fixed_point alpha and beta) is too large, and
    no --tol avoids them. Otherwise the message names --tol, which a
    smaller value would fix."""
    names = ", ".join(scaled or overflowed)
    ends = (f", --alpha = {config.alpha!r}, --beta = {config.beta!r}"
            if "fixed_point" in names else "")
    if not scaled:
        return f"the limit of {names} overflows at --tol = {config.tol!r}{ends}"
    sup, which = max((sup_norm(getattr(sol, name)), name) for name in ("a", "f", "I1", "I2", "F"))
    return (f"the limit of {names} overflows at every --tol: the problem's scale is too large "
            f"(h = {sol.grid.h!r}, sup|{which}| = {sup!r}{ends})")


_COMMANDS = {"solve": _cmd_solve, "fundamental": _cmd_fundamental, "verify": _cmd_verify}


def _float_columns(columns) -> bool:
    return all(isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns)


def _pieces(payload: dict, table: tuple, output_format: str):
    """Serialize a payload as JSON, or as CSV: '# key = value' lines for the
    payload's scalars (nested objects flattened one level, arrays left out),
    then the table's header and rows. Yields the text in pieces, in order,
    as bytes: ASCII, since ``json.dumps`` escapes every other character.

    ``table`` is a header line and its columns (ndarrays or sequences). The
    float columns (the payload's ndarrays for JSON, the table for CSV) are
    formatted by ``shortest.rows``, one block of rows per piece, so a
    reader that writes each piece out holds one block of text at a time.
    A JSON array's items are joined by ",\n    ". The arrays hold grid
    nodes or SampledFn values: finite, so no nan or inf reaches the JSON,
    and at least three rows (n >= 2). Everything else in the JSON goes
    through ``json.dumps``, and a table of other cells (verify's check
    list) is joined row by row with ``str``.
    """
    if output_format == "json":
        for i, (key, value) in enumerate(payload.items()):
            yield f"{',' if i else '{'}\n  {json.dumps(key)}: ".encode()
            if not isinstance(value, np.ndarray):
                yield json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ").encode()
                continue
            from . import shortest

            yield b"[\n    "
            yield from shortest.rows((value,), (",\n    ",))
            yield b"\n  ]"
        yield b"\n}\n"
        return
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines += [f"# {key}_{sub} = {subval}" for sub, subval in value.items()
                      if not isinstance(subval, list)]
        elif isinstance(value, (int, float)):
            lines.append(f"# {key} = {value}")
    header, columns = table
    lines.append(header)
    yield ("\n".join(lines) + "\n").encode()
    if _float_columns(columns):
        from . import shortest

        yield from shortest.rows(columns, (",",) * (len(columns) - 1) + ("\n",))
        yield b"\n"
    else:
        yield "".join(",".join(map(str, row)) + "\n" for row in zip(*columns)).encode()


def _say(text: str) -> None:
    """Write ``text`` unbuffered to stderr's file descriptor, after what
    the stream holds, so that text that cannot be written is dropped, not
    left in the stream's buffer to fail again at exit. A missing stderr
    (closed when the process started) drops it too: stderr never changes
    the exit code or the payload."""
    try:
        sys.stderr.flush()
        os.write(sys.stderr.fileno(), text.encode(sys.stderr.encoding, "backslashreplace"))
    except (AttributeError, OSError):
        pass


def _fail(exc: Exception) -> int:
    """Say the message of ``exc``, which ended a run before any output, and
    return its exit code."""
    if isinstance(exc, (ContractionViolation, MaxTermsExceeded)):
        code, message = EXIT_NOT_CONTRACTIVE, str(exc)
    elif isinstance(exc, (OracleSingular, Diverged)):
        code, message = EXIT_VERIFY_FAILED, f"verification aborted: {exc}"
    else:
        code, message = EXIT_BAD_INPUT, str(exc)
    _say(f"bvpseries: {message}\n")
    return code


def _execute(config: argparse.Namespace):
    """``run``, with the output as an iterator of its pieces, each rendered
    when it is read."""
    try:
        payload, table, code, message = _COMMANDS[config.command](config)
    except (SolverError, OSError) as exc:
        return _fail(exc), None
    if message is not None:
        _say(f"bvpseries: {message}\n")
    return code, _pieces(payload, table, config.output_format)


def run(config: argparse.Namespace) -> tuple[int, str | None]:
    """Execute one configured command.

    Returns the exit code and the serialized output (None when the failure
    precedes any result). Messages for non-zero codes go to stderr here.
    """
    code, pieces = _execute(config)
    return code, None if pieces is None else b"".join(pieces).decode()


def main(argv=None) -> int:
    """Run the command line ``argv`` and return its exit code. The output,
    or the help text of -h or --help, goes to ``_write``'s one sink (in-process
    callers that want the text call ``run``)."""
    try:
        config = config_from_args(build_parser().parse_args(argv))
    except _Help as help_text:
        return _write((help_text.args[0].encode(),), None, EXIT_OK)
    except (SolverError, OSError) as exc:
        return _fail(exc)
    code, pieces = _execute(config)
    return code if pieces is None else _write(pieces, config.out, code)


def _write(pieces, out: str | None, code: int) -> int:
    """Write the pieces, bytes, as they are rendered, a run at a time
    (``_runs``), so the whole text is never held, to one binary sink: the
    file ``out``, or when that is None file descriptor 1, whatever
    ``sys.stdout`` is. A stdout that was closed when the process started
    (``sys.stdout`` is None) is not written: fd 1 may hold another file by
    now. Returns ``code``, or 4 when the output cannot be written (a
    closed stdout, a full device, a reader that hung up), for stdout as
    for a file."""
    sink = 1 if out is None else out
    try:
        if sink == 1 and sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        with open(sink, "wb", closefd=sink != 1) as fh:
            fh.writelines(_runs(pieces))
    except OSError as exc:
        _say(f"bvpseries: cannot write {'stdout' if sink == 1 else sink}: {exc}\n")
        return EXIT_BAD_INPUT
    return code


def _runs(pieces):
    """The pieces, bytes, cut into runs of whole mebibytes (2**20 bytes, or
    a multiple), and the rest.

    One write per run, not per piece, so a small piece costs no write call
    of its own, and a pipe's reader gets the text in full reads, as when the
    whole text went out a megabyte at a time. With a write per piece,
    bench/run.py's peak_rss_mb, which reads the harness's own resident
    memory while that exceeds the solver's, rose about 10% on solve-stiff
    and fundamental-bulk: the harness's heap grew from its many small reads.
    The runs end on mebibyte boundaries, not where a piece ends, so the
    reader's reads are whole pipe buffers however the rows are cut into
    blocks: with runs ending at the first piece past 2**20 bytes, cutting
    the same rows into equal blocks raised that peak_rss_mb on
    fundamental-bulk from 114.7 to 124-131 MiB. A run is a memoryview of
    the joined pieces, so cutting copies nothing.
    """
    run, length = [], 0
    for piece in pieces:
        run.append(piece)
        length += len(piece)
        if length >= 1 << 20:
            joined = memoryview(b"".join(run))
            cut = length - length % (1 << 20)
            yield joined[:cut]
            run, length = [joined[cut:]], length - cut
    yield b"".join(run)
