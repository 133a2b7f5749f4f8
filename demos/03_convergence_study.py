"""Watch every grid-level defect shrink at second order.

The series itself is summed to a certified tail below 1e-10, so what is
left on a finite grid is quadrature error. Four independent measurements
of that error are tabulated against the node count:

  * the sup-norm gap to the shooting oracle,
  * the interior residual of the differential equation,
  * the deviation of the Wronskian from its constant value,
  * the gap in the Abel identity I2(x1) * psi'(x1) = 1.

All four should divide by about 4 each time n doubles.
"""


import numpy as np

from bvpseries import (
    ProblemD,
    SampledFn,
    contraction_ratio,
    fundamental_system,
    general_solution,
    make_grid,
    oracle_fundamental,
    residual_report,
    rk4_ivp,
    solve_problem_d,
    wronskian_check,
    compare,
)

x1 = 0.9
# numpy forms, so the oracle can evaluate them over its array of midpoints
A_EVAL = lambda x: 1.5 * np.cos(x)
F_EVAL = lambda x: np.exp(-x)

print(f"problem: u'' + 1.5 cos(x) u = exp(-x) on [0, {x1}]")
print(f"  q = {1.5 * x1 * x1 / 2.0:.4f}")
print()
print(f"  {'n':>6}  {'oracle gap':>12}  {'residual':>12}  "
      f"{'wronskian':>12}  {'abel gap':>12}")

rows = []
for n in (256, 512, 1024, 2048, 4096):
    grid = make_grid(x1, n)
    a = SampledFn(grid, A_EVAL(grid.nodes))
    f = SampledFn(grid, F_EVAL(grid.nodes))
    cert = contraction_ratio(1.5, x1)
    sol = fundamental_system(a, f, cert)

    oc = oracle_fundamental(a, f, a_eval=A_EVAL, f_eval=F_EVAL)
    gap = compare(sol, oc)

    report = solve_problem_d(sol, ProblemD(alpha=0.5, beta=-1.0))
    _, dev = wronskian_check(sol)

    # psi is the homogeneous shot, so its forcing is zero at nodes and
    # half steps alike
    f0 = SampledFn(grid, np.zeros(n + 1))
    psi = rk4_ivp(a, f0, 0.0, 1.0, a_eval=A_EVAL, f_eval=lambda x: 0.0)
    abel = abs(sol.i2_at_x1 * psi.du[-1] - 1.0)

    rows.append((n, gap, report.residual_max, dev, abel))
    print(f"  {n:6d}  {gap:12.3e}  {report.residual_max:12.3e}  "
          f"{dev:12.3e}  {abel:12.3e}")

print()
print("ratios between consecutive rows (4.0 = clean second order)")
for (n0, *prev), (n1, *cur) in zip(rows, rows[1:]):
    ratios = "  ".join(f"{p / c:10.2f}" for p, c in zip(prev, cur))
    print(f"  {n0:5d} -> {n1:5d}: {ratios}")

print()
print("the residual column flattens first: forming a second difference")
print("divides rounding noise by h^2, so its floor rises as the grid is")
print("refined while every other column keeps falling.")
