"""Right-preconditioned restarted flexible GMRES.

Used by the block-Jacobi inner solve of the fixed-point map and by the
lagged-LU solve of the condensed trace system, which starts from a guess
and gives up at a step that stalls.  Each step orthogonalizes
with classical Gram-Schmidt plus one reorthogonalization (CGS2) over the
stacked basis and keeps the Hessenberg QR as a small rotation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular


@dataclass
class KrylovParams:
    restart: int = 200
    rtol: float = 1e-10
    max_iters: int = 5000


_EPS = np.finfo(float).eps


def krylov_solve(A, b, M=None, params: KrylovParams | None = None, x0=None,
                 stall: float | None = None):
    """Right-preconditioned restarted (flexible) GMRES.

    ``A`` is a matrix or LinearOperator, ``M`` an optional preconditioner
    callable/operator approximating A^{-1}.  Returns (x, info) where info
    holds the iteration count and final relative residual.

    ``x0`` is the starting guess (zero by default; the caller's array is not
    modified).  The stop test stays ||b - A x|| <= rtol ||b||, relative to
    ``b`` and not to the initial residual, so an exact ``x0`` returns after
    no iteration.  With ``stall`` set, a step that leaves the residual
    estimate above ``stall`` times the previous one ends the solve, which
    then reports its residual as usual (normally unconverged): a caller with
    a cheaper fallback gives up on a preconditioner that no longer fits.

    Each step orthogonalizes against the basis with classical Gram-Schmidt
    and one full reorthogonalization (CGS2), four matrix-vector products
    over the stacked basis ``V``.  The Hessenberg matrix is reduced to
    triangular form by Givens rotations accumulated in a small orthogonal
    matrix ``Qt``, so the residual estimate of step j is beta |Qt[j+1, 0]|.
    A happy breakdown (the new basis vector vanishes against the column)
    ends the restart cycle.  ``restart < 1`` or ``max_iters < 1`` raises
    ``ValueError``.
    """
    params = params or KrylovParams()
    if params.restart < 1:
        raise ValueError(f"GMRES restart length must be >= 1, got {params.restart}")
    if params.max_iters < 1:
        raise ValueError(f"GMRES iteration budget max_iters must be >= 1, got {params.max_iters}")
    n = b.shape[0]
    matvec = A.dot if hasattr(A, "dot") else A
    if M is None:
        psolve = lambda v: v
    else:
        psolve = M.dot if hasattr(M, "dot") else M

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), {"iterations": 0, "relres": 0.0, "converged": True}
    tol = params.rtol * bnorm
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    total = 0
    m = params.restart
    V = np.empty((m + 1, n))
    Z = np.empty((m, n))
    R = np.zeros((m, m))
    stalled = False
    while total < params.max_iters and not stalled:
        r = b - matvec(x)
        beta = np.linalg.norm(r)
        if beta <= tol:
            return x, {"iterations": total, "relres": beta / bnorm, "converged": True}
        V[0] = r / beta
        Qt = np.eye(m + 1)
        est = beta
        j = 0
        while j < m and total < params.max_iters:
            Z[j] = psolve(V[j])
            w = matvec(Z[j])
            Vj = V[:j + 1]
            h = Vj @ w
            w -= h @ Vj
            h2 = Vj @ w
            w -= h2 @ Vj
            h += h2
            h_next = np.linalg.norm(w)
            # rotate the new column by the accumulated rotations, then
            # annihilate its subdiagonal entry h_next
            col = Qt[:j + 1, :j + 1] @ h
            d = np.hypot(col[j], h_next)
            c, s = col[j] / d, h_next / d
            col[j] = d
            R[:j + 1, j] = col
            Qt[[j, j + 1], :j + 2] = (np.array([[c, s], [-s, c]])
                                      @ Qt[[j, j + 1], :j + 2])
            total += 1
            j += 1
            if h_next <= _EPS * np.linalg.norm(h):
                break                   # happy breakdown: span(V) is invariant
            V[j] = w / h_next
            est, prev = beta * abs(Qt[j, 0]), est
            if est <= tol:
                break
            if stall is not None and est > stall * prev:
                stalled = True
                break
        y = solve_triangular(R[:j, :j], beta * Qt[:j, 0], check_finite=False)
        x = x + y @ Z[:j]
    r = b - matvec(x)
    relres = np.linalg.norm(r) / bnorm
    return x, {"iterations": total, "relres": relres,
               "converged": relres <= params.rtol}
