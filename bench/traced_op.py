"""Run one bvpseries op in-process with a span around every layer call.

    python3 bench/traced_op.py OP_ID ARGV...

ARGV is what would follow ``python -m bvpseries``. The calls follow the
order the CLI makes them: argument parsing, CoefficientSpec.expression,
make_grid, sample, contraction_ratio, fundamental_system, solve_problem_d,
oracle_fundamental and compare, the checks, then cli.run, which repeats the
chain and renders the payload. Within cli.run the chain's calls (cli._prepare,
which samples and sums, and the bvp, oracle and checks calls) are timed
without spans, so cli.run minus that time is the cost of its own code. Counts are taken at the same boundaries by
wrapping bvpseries.grid.eval_expr (one scalar expression evaluation) and
bvpseries.oracle.rk4_ivp (n RK4 steps per call); the wrapper adds its call
cost to the sample and oracle spans, which the tracing overhead includes.

Prints one JSON object: the spans, the counts, cli.run's exit code and the
size of its rendered output.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

from tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = Tracer(int(argv[0]), _START)
    span = tracer.span
    with span("setup.import", "setup"):
        from bvpseries import checks, cli, grid, oracle
        from bvpseries.bvp import ProblemD, solve_problem_d, wronskian_check
        from bvpseries.series_core import contraction_ratio, fundamental_system

    evals = steps = 0
    scalar_eval = grid.eval_expr
    ivp = oracle.rk4_ivp

    def counted_eval(e, x):
        nonlocal evals
        evals += 1
        return scalar_eval(e, x)

    def counted_ivp(a, f, *args, **kwargs):
        nonlocal steps
        steps += a.grid.n
        return ivp(a, f, *args, **kwargs)

    grid.eval_expr = counted_eval
    oracle.rk4_ivp = counted_ivp

    with span("cli.args", "cli"):
        args = cli.build_parser().parse_args(argv[1:])
        config = cli.config_from_args(args)
    with span("expr.parse", "expr"):
        a_spec = grid.CoefficientSpec.expression(args.a)
        f_spec = grid.CoefficientSpec.expression(args.f)
    with span("grid.make_grid", "grid"):
        g = grid.make_grid(config.x1, config.n)
    with span("grid.sample", "grid"):
        a = grid.sample(a_spec, g)
        f = grid.sample(f_spec, g)
    sample_evals = evals
    with span("series.contraction_ratio", "series_core"):
        cert = contraction_ratio(grid.sup_norm(a), g.x1)
    with span("series.fundamental_system", "series_core"):
        sol = fundamental_system(a, f, cert, tol=config.tol, max_terms=config.max_terms)
    check_list = []
    if config.command in ("solve", "verify"):
        with span("bvp.solve_problem_d", "bvp"):
            report = solve_problem_d(sol, ProblemD(config.alpha, config.beta))
        check_list += report.bound_checks
    if config.command == "verify":
        with span("oracle.oracle_fundamental", "oracle"):
            shot = oracle.oracle_fundamental(sol.a, sol.f, a_eval=a_spec.evaluate,
                                             f_eval=f_spec.evaluate)
        with span("oracle.compare", "oracle"):
            max_rel_err = oracle.compare(sol, shot)
        with span("bvp.wronskian_check", "bvp"):
            _, wronskian_dev = wronskian_check(sol)
        with span("checks.run", "checks"):
            check_list += checks.boundary_checks(sol)
            check_list += checks.residual_checks(sol)
            check_list += checks.consistency_checks(sol)
            check_list.append(checks.wronskian_entry(sol, wronskian_dev))
            check_list.append(checks.fixed_point_entry(
                report.fixedpoint_err, config.tol, config.alpha, config.beta))
            check_list.append(checks.oracle_entry(max_rel_err, sol))
    oracle_evals, oracle_steps = evals - sample_evals, steps

    # Inside cli.run, time the layer calls it makes, without spans, so that
    # what remains of the same call is argument handling, payload building
    # and rendering (cli.render_s).
    chain_s = 0.0

    def timed(fn):
        def call(*args, **kwargs):
            nonlocal chain_s
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                chain_s += time.perf_counter() - start
        return call

    for owner, names in (
            (cli, ("_prepare", "solve_problem_d", "oracle_fundamental", "compare",
                   "wronskian_check")),
            (checks, ("boundary_checks", "residual_checks", "consistency_checks",
                      "wronskian_entry", "fixed_point_entry", "oracle_entry"))):
        for name in names:
            setattr(owner, name, timed(getattr(owner, name)))
    with span("cli.run", "cli"):
        code, text = cli.run(config)

    spans = tracer.finish()
    json.dump({
        "spans": [asdict(s) for s in spans],
        "exit": code,
        "out_bytes": 0 if text is None else len(text.encode()),
        "n": g.n,
        "sample_evals": sample_evals,
        "oracle_evals": oracle_evals,
        "oracle_steps": oracle_steps,
        "cli_chain_s": chain_s,
        "terms": sum(sol.terms_used.values()),
        "tail_max": max(sol.tail_bound.values()),
        "failed_checks": [c.name for c in check_list if not c.passed],
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
