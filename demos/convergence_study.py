"""Convergence study for the nonlinear manufactured problem.

A manufactured flux function on the ITER-shaped domain exercises the
nonlinear source path: each uniform refinement should reduce the L-inf
errors of both the flux and its scaled gradient, and the built-in energy
residual E, by roughly 2**(k+1).  This script prints the study's table of
errors and observed orders for k=2.
"""

from gsdpg import build_builtin_mesh, convergence_study, get_problem

problem = get_problem("manufactured")
mesh = build_builtin_mesh(problem.boundary, resolution=(8, 2))

print(f"{'level':>5} {'elements':>9} {'E':>11} {'ord':>5} {'err_psi':>11} {'ord':>5} "
      f"{'err_q':>11} {'ord':>5} {'nl_iters':>8}")
for row in convergence_study(problem, mesh, k=2, levels=4):
    assert row["converged"], f"level {row['level']} did not converge"
    print(f"{row['level']:5d} {row['n_elements']:9d} "
          f"{row['energy_residual']:11.3e} {row['order_energy']:5.2f} "
          f"{row['err_psi']:11.3e} {row['order_psi']:5.2f} "
          f"{row['err_q']:11.3e} {row['order_q']:5.2f} {row['nonlinear_iters']:8d}")
