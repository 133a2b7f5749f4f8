"""Golden payloads: solve and fundamental output must not change by a byte.

The files under tests/golden/ were written by the scalar, node-by-node
expression evaluation. The coefficients use exp, tanh, log and ^, whose
numpy forms differ from libm in the last bit at some of these nodes, so any
drift in how expressions are evaluated shows up here.
"""

from pathlib import Path

import pytest

from bvpseries import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

_SOLVE = ["--a", "0.6*exp(-x)*tanh(x + 0.3) + 0.1*log(1 + x)^2",
          "--f", "exp(x) - tanh(3*x)^3 + log(2 + x)^1.5",
          "--x1", "1.1", "--alpha", "0.7", "--beta", "-0.4", "--n", "48"]
_FUNDAMENTAL = ["--a", "0.8*tanh(2*x)^2 - 0.2*log(1.5 + x) + 0.1*exp(-x^2)",
                "--f", "exp(-x^2)*(1 + x)^0.5 + log(3 - x)*tanh(x)",
                "--x1", "0.9", "--n", "48"]

CASES = {
    "solve.json": ["solve", *_SOLVE],
    "solve.csv": ["solve", *_SOLVE, "--format", "csv"],
    "fundamental.json": ["fundamental", *_FUNDAMENTAL],
    "fundamental.csv": ["fundamental", *_FUNDAMENTAL, "--format", "csv"],
    "verify.json": ["verify", *_SOLVE],
    "verify.csv": ["verify", *_SOLVE, "--format", "csv"],
    "fundamental_neg0.json": ["fundamental", "--a", "-0", "--f", "1",
                              "--x1", "1", "--n", "16"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_matches_golden(name, capsysbinary):
    assert cli.main(CASES[name]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
