"""The package's top-level names are the ones README's Library section documents."""

from pathlib import Path

import pytest

import bvpseries

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text()
    start = text.index("## Library")
    return text[start:text.index("\n## ", start + 1)]


def test_every_exported_name_resolves_and_is_documented():
    section = _library_section()
    assert len(set(bvpseries.__all__)) == len(bvpseries.__all__)
    for name in bvpseries.__all__:
        assert getattr(bvpseries, name) is not None
        assert f"`{name}`" in section, name


def test_each_exported_name_has_one_object():
    # checks measures the Wronskian; bvp imports it for solve_problem_d
    from bvpseries import bvp, checks

    assert bvpseries.wronskian_check is checks.wronskian_check is bvp.wronskian_check
    assert bvp.residual_report is checks.residual_report


def test_library_example_runs(capsys):
    code = _library_section().split("```python\n")[1].split("```")[0]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True 21"


def _records():
    """One instance of each record class, built by the library, with the
    parameters of its constructor in order."""
    from bvpseries import cli, expr, grid, oracle, series_core

    args = cli.build_parser().parse_args(["solve", "--a", "0.5", "--f", "1", "--x1", "1",
                                          "--n", "8"])
    config = cli.config_from_args(args)
    sol = cli._prepare(config)
    report = bvpseries.solve_problem_d(sol, bvpseries.ProblemD(0.25, -0.5))
    tree = expr.parse_expr("-sin(x) + 2")
    return [
        (expr.Const, tree.rhs, ("value",)),
        (expr.Var, tree.lhs.arg.arg, ()),
        (expr.Unary, tree.lhs, ("op", "arg")),
        (expr.Binary, tree, ("op", "lhs", "rhs")),
        (grid.Grid, sol.grid, ("x1", "n", "h", "nodes")),
        (grid.SampledFn, sol.I1, ("grid", "values")),
        (series_core.ContractionCertificate, sol.certificate, ("a_sup", "x1", "q", "margin")),
        (series_core.SeriesSolution, sol,
         ("I1", "I2", "F", "dI1", "dI2", "dF", "terms_used", "terms_apriori", "tail_bound",
          "certificate", "a", "f", "g", "term_sups")),
        (bvpseries.ProblemD, bvpseries.ProblemD(0.25, -0.5), ("alpha", "beta")),
        (bvpseries.SolveReport, report,
         ("u", "du", "c1", "c2", "boundary_err", "residual_max", "wronskian_dev",
          "bound_checks", "fixedpoint_err")),
        (bvpseries.Check, report.bound_checks[0], ("name", "passed", "value", "limit")),
        (oracle.IvpTrajectory, bvpseries.rk4_ivp(sol.a, sol.f, 0.0, 1.0),
         ("grid", "index", "u", "du")),
        (oracle.OracleFundamental, bvpseries.oracle_fundamental(sol.a, sol.f),
         ("grid", "index", "I1", "I2", "F", "dI1", "dI2", "dF")),
    ]


def test_each_record_builds_by_keyword_and_by_position():
    for cls, record, names in _records():
        assert type(record) is cls
        values = [getattr(record, name) for name in names]
        for built in (cls(*values), cls(**dict(zip(names, values)))):
            for name, value in zip(names, values):
                assert getattr(built, name) is value, (cls, name)


def test_each_record_refuses_a_wrong_set_of_fields():
    for cls, record, names in _records():
        values = [getattr(record, name) for name in names]
        wrong = [((*values, 0.0), {}),  # an extra positional value
                 (values, {"unknown": 0.0})]
        if names:
            wrong += [(values[:-1], {}),  # a missing field
                      (values, {names[0]: values[0]})]  # a field given twice
        for args, kwargs in wrong:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
