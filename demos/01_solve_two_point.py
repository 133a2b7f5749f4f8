"""Solve a two-point problem end to end and read every diagnostic.

The problem posed here fixes the value at the left endpoint and the slope
at the right endpoint:

    u'' + cos(x) u = 1   on [0, 0.9],   u(0) = 1,   u'(0.9) = -0.5

The solver builds the fundamental system (I1, I2, F) once, then assembles
u = beta I1 + alpha I2 + F. Everything the construction promises is checked
on the way out and reported here.
"""

from bvpseries import (
    CoefficientSpec,
    ProblemD,
    contraction_ratio,
    fundamental_system,
    make_grid,
    sample,
    solve_problem_d,
    sup_norm,
)

x1 = 0.9
grid = make_grid(x1, 1024)

a = sample(CoefficientSpec.expression("cos(x)"), grid)
f = sample(CoefficientSpec.expression("1"), grid)

cert = contraction_ratio(sup_norm(a), x1)
print("contraction certificate")
print(f"  sup|a| = {cert.a_sup:.6f}, x1 = {cert.x1}")
print(f"  q = {cert.q:.6f}  (margin to 1: {cert.margin:.6f})")
print()

sol = fundamental_system(a, f, cert)
print("series summation")
for name in ("I1", "I2", "F"):
    print(f"  {name}: {sol.terms_used[name]:3d} terms, "
          f"certified tail {sol.tail_bound[name]:.3e}")
print(f"  I2(x1) = {sol.i2_at_x1:.10f}")
print()

report = solve_problem_d(sol, ProblemD(alpha=1.0, beta=-0.5))

print("solution sample (every 128th node)")
print(f"  {'x':>8}  {'u':>12}  {'du':>12}")
for i in range(0, grid.n + 1, 128):
    print(f"  {grid.nodes[i]:8.4f}  {report.u.values[i]:12.8f}  "
          f"{report.du.values[i]:12.8f}")
print()

print("diagnostics")
err0, err1 = report.boundary_err
print(f"  |u(0) - alpha|        = {err0:.3e}")
print(f"  |u'(x1) - beta|       = {err1:.3e}")
print(f"  equation residual     = {report.residual_max:.3e}")
print(f"  fixed-point defect    = {report.fixedpoint_err:.3e}")
print(f"  Wronskian deviation   = {report.wronskian_dev:.3e}")
print()

print("bound checks")
for check in report.bound_checks:
    flag = "ok" if check.passed else "FAIL"
    print(f"  [{flag:>4}] {check.name:24s} value {check.value:10.3e}  "
          f"limit {check.limit:10.3e}")
