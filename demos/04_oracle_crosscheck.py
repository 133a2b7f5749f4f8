"""Cross-check the series construction against an independent integrator.

The series route never integrates the differential equation forward; it
iterates a double-integral operator. The oracle route does the opposite:
classic fourth-order shooting from x = 0, then a change of basis to the
same normalization. Agreement between the two is evidence that both are
right, since they share no code path beyond the grid.

Each row solves a different coefficient at n = 2048 and reports the
largest node-wise relative gap over I1, I2, and F.
"""

from bvpseries import (
    CoefficientSpec,
    compare,
    contraction_ratio,
    fundamental_system,
    make_grid,
    oracle_fundamental,
    sample,
    sup_norm,
)

CASES = [
    ("0", "1", 1.0),
    ("1", "1", 1.0),
    ("-1", "x", 1.0),
    ("sin(x)", "1", 1.0),
    ("1/(1 + x^2)", "1", 1.0),
    ("cos(3*x)", "exp(-x)", 0.8),
    ("1.5*exp(-x^2)", "sqrt(x + 1)", 0.9),
]

print(f"{'a(x)':>16}  {'f(x)':>12}  {'x1':>4}  {'q':>7}  {'terms':>5}  {'gap':>10}")
for a_text, f_text, x1 in CASES:
    a_spec = CoefficientSpec.expression(a_text)
    f_spec = CoefficientSpec.expression(f_text)
    grid = make_grid(x1, 2048)
    a = sample(a_spec, grid)
    f = sample(f_spec, grid)
    cert = contraction_ratio(sup_norm(a), x1)
    sol = fundamental_system(a, f, cert)
    oc = oracle_fundamental(a, f, a_eval=a_spec.evaluate, f_eval=f_spec.evaluate)
    gap = compare(sol, oc)
    print(f"{a_text:>16}  {f_text:>12}  {x1:4.1f}  {cert.q:7.4f}  "
          f"{max(sol.terms_used.values()):5d}  {gap:10.3e}")

print()
print("every gap above is quadrature-level; tightening the grid shrinks it")
print("at second order, as demo 03 shows.")
