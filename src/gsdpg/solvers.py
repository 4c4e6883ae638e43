"""Linear and nonlinear solvers for the normal equations.

The nonlinear path is a Picard iteration on the fixed-point map
A(U) = (J^T G^{-1} B_L)^{-1} [J^T G^{-1} (B_N(U) + F_L)], accelerated with
Anderson mixing and a cubic backtracking line search.  The inner linear
solve is either the condensed direct solve of ``GlobalState`` or flexible
GMRES (``gsdpg.krylov``) with a four-block Jacobi preconditioner, whose
interior blocks are per-element inverses applied as one batched product.
With the direct solve, the map owns a per-solve cache that keeps the
trace-system pattern and the LU of its first system, so later evaluations
solve by FGMRES preconditioned with that LU, started from the traces of the
iterate; ``solve_nonlinear`` empties the cache when it returns or raises.
An outer iteration that meets a non-finite residual stops and says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .krylov import krylov_solve
from .system import GlobalState, _factor_trace


@dataclass
class AndersonParams:
    m: int = 5
    rtol: float = 1e-8
    atol: float = 1e-10
    stol: float = 1e-12
    max_iters: int = 100
    line_search: bool = True


@dataclass
class SolveResult:
    U: np.ndarray
    converged: bool
    iterations: int
    history: list = field(default_factory=list)
    message: str = ""


# -- block-Jacobi preconditioner --------------------------------------


def build_block_jacobi(state: GlobalState):
    """Four diagonal blocks of B_L^T G^{-1} B_L, each solved directly;
    returns the map v -> P^{-1} v.

    Block ranges follow the global (Q, Psi, Qhat_n, Psihat) ordering of the
    constrained system: DOFs outside ``state.free`` are absent.  The
    interior blocks P11 (Q) and P22 (Psi) couple only within an element, so
    each element's W_q^T W_q and W_psi^T W_psi, from the whitened stack
    W = L^{-1} B, is inverted and applied with one batched product per
    block; the two trace blocks of the static normal matrix keep a sparse
    direct factorization, which replaces the multigrid inner solvers of
    large-scale settings.
    """
    tr, free = state.trial, state.free
    if not free[:tr.offset_qhat].all():
        raise ValueError("block-Jacobi preconditioner needs every interior DOF free")
    idx = np.flatnonzero(free)
    ends = np.searchsorted(idx, [0, tr.offset_psi, tr.offset_qhat, tr.offset_psihat, tr.n_total])
    slices = [slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]
    W, nq = state.cache.W, 2 * tr.nk
    A0 = state.normal_matrix_static().tocsr()
    blocks = ([np.swapaxes(Wb, 1, 2) @ Wb for Wb in (W[:, :, :nq], W[:, :, nq:nq + tr.nk])]
              + [A0[idx[sl]][:, idx[sl]].tocsc() for sl in slices[2:]])
    factors = []
    for b, P_bb in enumerate(blocks):
        P_T = np.swapaxes(P_bb, 1, 2) if b < 2 else P_bb.T
        asym = abs(P_bb - P_T).max() if P_bb.size else 0.0
        if asym > 1e-10 * max(1.0, abs(P_bb).max()):
            raise RuntimeError(f"preconditioner block {b + 1} is not symmetric")
        try:
            factors.append(np.linalg.inv(P_bb) if b < 2 else _factor_trace(P_bb))
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise RuntimeError(f"factorization of block P{b + 1}{b + 1} failed") from exc

    def apply(v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        for sl, f in zip(slices[:2], factors[:2]):
            out[sl] = (f @ v[sl].reshape(len(f), -1, 1)).ravel()
        for sl, lu in zip(slices[2:], factors[2:]):
            out[sl] = lu.solve(v[sl])
        return out

    return apply


# -- fixed-point map ----------------------------------------------------


class FixedPointMap:
    """A(U): one linearized normal-equation solve at the current iterate.

    ``trace_cache`` is the direct solve's per-solve cache (see
    ``GlobalState.solve_linearized``, which also gets the iterate as its
    starting guess); ``solve_nonlinear`` empties it.
    """

    def __init__(self, state: GlobalState, inner: str = "direct"):
        if inner not in ("direct", "gmres"):
            raise ValueError(f"unknown inner solver {inner!r}")
        self.state = state
        self.inner = inner
        self._precond = None
        self._linear_result = None
        self.trace_cache = {}
        self.inner_iterations = []

    def __call__(self, U: np.ndarray) -> np.ndarray:
        st = self.state
        N, D = st.sources(U)
        # when F_N vanishes identically, the map is constant: cache its value
        linear = not N.any() and not D.any()
        if linear and self._linear_result is not None:
            self.inner_iterations.append(0)
            return self._linear_result.copy()
        if self.inner == "direct":
            out = st.solve_linearized(N, D, cache=self.trace_cache, U0=U)
            self.inner_iterations.append(0)
        else:
            A = st.normal_matrix(D=D)
            b = st.fixed_point_rhs(U, N, D)
            A_ff, b_f = st.constrain(A, b)
            if self._precond is None:
                self._precond = build_block_jacobi(st)
            x, info = krylov_solve(A_ff, b_f, M=self._precond)
            self.inner_iterations.append(info["iterations"])
            if not info["converged"]:
                raise RuntimeError(
                    f"inner GMRES stalled at relative residual {info['relres']:.3e}"
                )
            out = st.expand(x)
        if linear:
            self._linear_result = out.copy()
        return out


# -- line search --------------------------------------------------------


_LAMBDA_MIN = 1e-4      # smallest line-search step
_ALPHA = 2e-4           # sufficient-decrease constant


def cubic_line_search(merit):
    """Backtracking on merit(lam) from lam = 1 with quadratic then cubic
    interpolation.

    Accepts the first lam with merit(lam) <= merit(0) * (1 - 2*_ALPHA*lam)
    (sufficient decrease for a squared-residual merit along a solver step,
    whose directional derivative at 0 is modeled as -2*merit(0)).  Steps are
    safeguarded to [0.1, 0.5] of the previous lam, and a non-finite merit
    halves it; gives up at _LAMBDA_MIN.
    """
    m0 = merit(0.0)
    slope = -2.0 * m0
    lam = 1.0
    m_lam = merit(lam)
    if m_lam <= m0 * (1.0 - 2.0 * _ALPHA * lam):
        return lam, m_lam
    # quadratic model through m0, slope, (lam, m_lam)
    lam_prev, m_prev = lam, m_lam
    denom = 2.0 * (m_lam - m0 - slope * lam)
    lam_new = -slope * lam * lam / denom if denom > 0 else 0.5 * lam
    lam = float(np.clip(lam_new, 0.1 * lam_prev, 0.5 * lam_prev))
    while True:
        m_lam = merit(lam)
        if m_lam <= m0 * (1.0 - 2.0 * _ALPHA * lam):
            return lam, m_lam
        if lam <= _LAMBDA_MIN:
            return _LAMBDA_MIN, merit(_LAMBDA_MIN)
        # cubic model through (lam_prev, m_prev) and (lam, m_lam)
        r1 = m_lam - m0 - slope * lam
        r2 = m_prev - m0 - slope * lam_prev
        den = lam * lam * lam_prev * lam_prev * (lam - lam_prev)
        a = (lam_prev * lam_prev * r1 - lam * lam * r2) / den
        bq = (-lam_prev**3 * r1 + lam**3 * r2) / den
        if a == 0.0:
            lam_new = -slope / (2.0 * bq) if bq != 0 else 0.5 * lam
        else:
            disc = bq * bq - 3.0 * a * slope
            lam_new = (-bq + np.sqrt(max(disc, 0.0))) / (3.0 * a)
        if not np.isfinite(lam_new):    # a non-finite merit: plain halving
            lam_new = 0.5 * lam
        lam_prev, m_prev = lam, m_lam
        lam = float(np.clip(lam_new, 0.1 * lam_prev, 0.5 * lam_prev))
        lam = max(lam, _LAMBDA_MIN)


# -- Anderson acceleration ---------------------------------------------


def _mixing_weights(residuals: list[np.ndarray]) -> np.ndarray:
    """Constrained least squares min ||sum a_i R_i||, sum a_i = 1.

    Solved in the difference reformulation; drops the oldest columns on
    rank deficiency.  residuals[0] is the newest.
    """
    mk = len(residuals) - 1
    if mk == 0:
        return np.array([1.0])
    R0 = residuals[0]
    while mk > 0:
        M = np.column_stack([residuals[i] - R0 for i in range(1, mk + 1)])
        gamma, _, rank, _ = np.linalg.lstsq(M, -R0, rcond=None)
        if rank == mk:
            break
        mk -= 1  # drop the oldest column and retry
    else:
        return np.array([1.0])
    alpha = np.empty(mk + 1)
    alpha[1:] = gamma
    alpha[0] = 1.0 - gamma.sum()
    return alpha


def anderson_solve(fp_map, U0: np.ndarray, params: AndersonParams | None = None):
    """Anderson-accelerated Picard iteration on U - A(U) = 0.

    With m = 0 and unit relaxation the iterates reduce to plain Picard; m < 0
    or max_iters < 1 raises ``ValueError``.  Returns a SolveResult whose history
    holds ||R_k||_2 per iteration.  A non-finite residual at iteration k
    stops the iteration unconverged, returning the iterate before it.
    """
    p = params or AndersonParams()
    if p.m < 0:
        raise ValueError(f"Anderson depth m must be >= 0, got {p.m}")
    if p.max_iters < 1:
        raise ValueError(f"nonlinear iteration budget max_iters must be >= 1, got {p.max_iters}")
    U_hist: list[np.ndarray] = [np.asarray(U0, dtype=float)]
    A_hist: list[np.ndarray] = [fp_map(U_hist[0])]
    R_hist: list[np.ndarray] = [U_hist[0] - A_hist[0]]
    r0_norm = np.linalg.norm(R_hist[0])
    history = []
    if not np.isfinite(r0_norm):
        return SolveResult(U_hist[0], False, 0, history,
                           "non-finite residual at iteration 0")
    stop = max(p.rtol * r0_norm, p.atol)

    U1 = A_hist[0]
    A1 = fp_map(U1)
    U_hist.insert(0, U1)
    A_hist.insert(0, A1)
    R_hist.insert(0, U1 - A1)
    history.append(np.linalg.norm(R_hist[0]))

    k = 1
    while True:
        rk = np.linalg.norm(R_hist[0])
        if not np.isfinite(rk):
            return SolveResult(U_hist[1], False, k, history,
                               f"non-finite residual at iteration {k}")
        if k >= p.max_iters:
            ok = bool(rk < stop)
            return SolveResult(U_hist[0], ok, k, history,
                               "converged" if ok else "max_iters exceeded")
        step = np.linalg.norm(U_hist[0] - U_hist[1])
        if rk < stop or step < p.stol * max(np.linalg.norm(U_hist[1]), 1e-300):
            return SolveResult(U_hist[0], True, k, history, "converged")
        mk = min(k, p.m)
        alpha = _mixing_weights(R_hist[: mk + 1])
        na = len(alpha)
        U_bar = sum(a * u for a, u in zip(alpha, U_hist[:na]))
        A_bar = sum(a * v for a, v in zip(alpha, A_hist[:na]))

        if p.line_search:
            cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

            def merit(lam):
                if lam == 0.0:
                    return rk * rk
                U_t = (1.0 - lam) * U_bar + lam * A_bar
                A_t = fp_map(U_t)
                cache[lam] = (U_t, A_t)
                R_t = U_t - A_t
                return float(R_t @ R_t)

            lam, _ = cubic_line_search(merit)
            U_new, A_new = cache[lam]
        else:
            lam = 1.0
            U_new = (1.0 - lam) * U_bar + lam * A_bar
            A_new = fp_map(U_new)

        U_hist.insert(0, U_new)
        A_hist.insert(0, A_new)
        R_hist.insert(0, U_new - A_new)
        del U_hist[p.m + 2:], A_hist[p.m + 2:], R_hist[p.m + 2:]
        k += 1
        history.append(np.linalg.norm(R_hist[0]))


def solve_nonlinear(state: GlobalState, params: AndersonParams | None = None,
                    inner: str = "direct", U0: np.ndarray | None = None):
    """Anderson-accelerated solve of the full system on a GlobalState.

    The map's trace-system cache (pattern and LU) lives only for this
    solve: it is emptied on return and on error.
    """
    fp = FixedPointMap(state, inner=inner)
    if U0 is None:
        U0 = state.initial_guess()
    else:
        U0 = state.apply_boundary(U0)
    try:
        return anderson_solve(fp, U0, params)
    finally:
        fp.trace_cache.clear()
