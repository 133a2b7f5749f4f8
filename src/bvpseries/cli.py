"""Command-line frontend: solve, fundamental, and verify subcommands.

Exit codes: 0 success, 2 series not certified to converge (or term cap hit),
3 singular I2(x1), 4 bad input, 5 verification failure. Human-readable
messages go to standard error; machine output (JSON or CSV) to standard
output or --out. Output is deterministic for a fixed configuration: floats
are serialized with their shortest round-trip representation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import checks as checks_mod
from .bvp import ProblemD, SolveReport, solve_problem_d, wronskian_check
from .errors import (
    ContractionViolation,
    Diverged,
    EvalError,
    InvalidDomain,
    MaxTermsExceeded,
    MissingForcing,
    OracleSingular,
    ParseError,
    SingularI2,
    TableDomainError,
)
from .grid import CoefficientSpec, make_grid, sample, sup_norm
from .oracle import compare, oracle_fundamental
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
    for the convergence gate, so usage errors exit 4 instead."""

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


def _prepare(config: RunConfig):
    grid = make_grid(config.x1, config.n)
    a = sample(config.a_spec, grid)
    f = sample(config.f_spec, grid)
    cert = contraction_ratio(sup_norm(a), grid.x1)
    sol = fundamental_system(a, f, cert, tol=config.tol, max_terms=config.max_terms)
    return sol


def _float_list(values) -> list:
    return [float(v) for v in values]


def _check_dicts(check_list) -> list:
    return [
        {"name": c.name, "passed": c.passed, "value": c.value, "limit": c.limit}
        for c in check_list
    ]


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


def _solve_payload(config: RunConfig, sol: SeriesSolution, report: SolveReport) -> dict:
    payload = _common_payload(config, sol)
    payload.update({
        "c1": float(report.c1),
        "c2": float(report.c2),
        "nodes": _float_list(sol.grid.nodes),
        "u": None if report.u is None else _float_list(report.u.values),
        "du": None if report.du is None else _float_list(report.du.values),
        "report": {
            "boundary_err": None if report.boundary_err is None
            else [float(report.boundary_err[0]), float(report.boundary_err[1])],
            "residual_max": report.residual_max,
            "fixedpoint_err": report.fixedpoint_err,
            "wronskian_dev": report.wronskian_dev,
            "bound_checks": _check_dicts(report.bound_checks),
        },
    })
    return payload


def _cmd_solve(config: RunConfig):
    sol = _prepare(config)
    try:
        report = solve_problem_d(sol, ProblemD(config.alpha, config.beta))
    except SingularI2 as exc:
        return _solve_payload(config, sol, exc.report), EXIT_SINGULAR, str(exc)
    return _solve_payload(config, sol, report), EXIT_OK, None


def _cmd_fundamental(config: RunConfig):
    sol = _prepare(config)
    payload = _common_payload(config, sol)
    payload["nodes"] = _float_list(sol.grid.nodes)
    for name in ("I1", "I2", "F", "dI1", "dI2", "dF"):
        payload[name] = _float_list(getattr(sol, name).values)
    return payload, EXIT_OK, None


def _cmd_verify(config: RunConfig):
    sol = _prepare(config)
    report = solve_problem_d(sol, ProblemD(config.alpha, config.beta))
    oracle = oracle_fundamental(
        sol.a, sol.f,
        a_eval=config.a_spec.evaluate, f_eval=config.f_spec.evaluate,
    )
    max_rel_err = compare(sol, oracle)
    _, wronskian_dev = wronskian_check(sol)
    all_checks = list(report.bound_checks)
    all_checks += checks_mod.boundary_checks(sol)
    all_checks += checks_mod.residual_checks(sol)
    all_checks += checks_mod.consistency_checks(sol)
    all_checks.append(checks_mod.wronskian_entry(sol, wronskian_dev))
    all_checks.append(checks_mod.fixed_point_entry(
        report.fixedpoint_err, config.tol, config.alpha, config.beta))
    all_checks.append(checks_mod.oracle_entry(max_rel_err, sol))
    passed = all(c.passed for c in all_checks)
    payload = _common_payload(config, sol)
    payload.update({
        "alpha": float(config.alpha),
        "beta": float(config.beta),
        "max_rel_err": max_rel_err,
        "passed": passed,
        "checks": _check_dicts(all_checks),
    })
    if passed:
        return payload, EXIT_OK, None
    failed = [c.name for c in all_checks if not c.passed]
    return payload, EXIT_VERIFY_FAILED, (
        f"verification failed: {len(failed)} of {len(all_checks)} checks: "
        + ", ".join(failed)
    )


_COMMANDS = {"solve": _cmd_solve, "fundamental": _cmd_fundamental, "verify": _cmd_verify}


def _preamble_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(payload: dict, columns: list[str]) -> str:
    """Render a payload as '#'-prefixed metadata plus a node table."""
    lines = []
    for key, value in payload.items():
        if key in columns or key == "checks":
            continue
        if isinstance(value, dict):
            for sub, subval in value.items():
                if isinstance(subval, (list, dict)):
                    continue
                lines.append(f"# {key}_{sub} = {_preamble_value(subval)}")
        elif isinstance(value, (int, float, bool)) or value is None:
            lines.append(f"# {key} = {_preamble_value(value)}")
    if "checks" in payload:
        lines.append("name,passed,value,limit")
        for c in payload["checks"]:
            lines.append(f"{c['name']},{c['passed']},{c['value']!r},{c['limit']!r}")
    else:
        lines.append(",".join(columns))
        series = [payload.get(col) for col in columns]
        if all(s is not None for s in series):
            for row in zip(*series):
                lines.append(",".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"


def _render(payload: dict, config: RunConfig) -> str:
    if config.output_format == "json":
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if config.command == "solve":
        table = dict(payload)
        table["x"] = table.pop("nodes")
        return _csv_text(table, ["x", "u", "du"])
    if config.command == "fundamental":
        table = dict(payload)
        table["x"] = table.pop("nodes")
        return _csv_text(table, ["x", "I1", "I2", "F", "dI1", "dI2", "dF"])
    return _csv_text(payload, [])


def run(config: RunConfig) -> tuple[int, str | None]:
    """Execute one configured command.

    Returns the exit code and the serialized output (None when the failure
    precedes any result). Messages for non-zero codes go to stderr here.
    """
    try:
        payload, code, message = _COMMANDS[config.command](config)
    except (ContractionViolation, MaxTermsExceeded) as exc:
        print(f"bvpseries: {exc}", file=sys.stderr)
        return EXIT_NOT_CONTRACTIVE, None
    except SingularI2 as exc:
        print(f"bvpseries: {exc}", file=sys.stderr)
        return EXIT_SINGULAR, None
    except (ParseError, TableDomainError, InvalidDomain, EvalError,
            MissingForcing, OSError) as exc:
        print(f"bvpseries: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT, None
    except (OracleSingular, Diverged) as exc:
        print(f"bvpseries: verification aborted: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED, None
    if message is not None:
        print(f"bvpseries: {message}", file=sys.stderr)
    return code, _render(payload, config)


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


if __name__ == "__main__":
    sys.exit(main())
