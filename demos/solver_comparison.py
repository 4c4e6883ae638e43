"""Compare the nonlinear and linear solver options on a hard problem.

Two comparisons on the strongly nonlinear rectangle problem:

1. Outer iterations: plain Picard iteration (no mixing history) against
   Anderson mixing with a 5-deep history, both with the safeguarded line
   search.  Anderson should need no more iterations than Picard.

2. Inner linear solves: direct factorization of the condensed trace system
   against flexible GMRES on the full normal equations, unpreconditioned
   and with the block-Jacobi preconditioner built from the four
   variable-block diagonals.
"""

import time

import numpy as np

from gsdpg import (
    AndersonParams,
    GlobalState,
    KrylovParams,
    build_block_jacobi,
    build_builtin_mesh,
    get_problem,
    krylov_solve,
    solve_nonlinear,
)

problem = get_problem("rect-amr")
mesh = build_builtin_mesh(problem.boundary, resolution=(8, 8))

print("-- outer iteration comparison (rtol 1e-8) --")
for label, m in [("Picard (m=0)", 0), ("Anderson (m=5)", 5)]:
    state = GlobalState(mesh, problem, k=1)
    t0 = time.perf_counter()
    result = solve_nonlinear(state, AndersonParams(m=m, rtol=1e-8))
    dt = time.perf_counter() - t0
    print(f"{label:16s} converged={result.converged} "
          f"iterations={result.iterations:3d} time={dt:.2f}s")

print()
print("-- inner linear solver comparison --")
state = GlobalState(mesh, problem, k=1)
U0 = state.initial_guess()
N, D = state.sources(U0)
A = state.normal_matrix(D)
b = state.fixed_point_rhs(U0, N=N, D=D)
A_ff, b_f = state.constrain(A, b)

params = KrylovParams(restart=200, rtol=1e-10, max_iters=5000)
_, plain = krylov_solve(A_ff, b_f, M=None, params=params)
M = build_block_jacobi(state)
_, precon = krylov_solve(A_ff, b_f, M=M, params=params)
print(f"GMRES unpreconditioned: {plain['iterations']:5d} iterations "
      f"(relres {plain['relres']:.1e})")
print(f"GMRES block-Jacobi:     {precon['iterations']:5d} iterations "
      f"(relres {precon['relres']:.1e})")
