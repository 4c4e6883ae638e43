"""Global minimal-residual machinery for the ultraweak scheme.

Holds the stacked element arrays, the trial-space vector layout, the normal
operator A = J^T G^{-1} B_L with its nonlinear-source corrections, the
right-hand sides of the fixed-point map, and the energy residual
r^T G^{-1} r used both as the solver objective and as the refinement
estimator.  Every Gram inverse enters through the whitened element stacks
W_K = L_K^{-1} B_K and Z_K = L_K^{-1} E_tau of ``ElementCache``, with
G_K = L_K L_K^T and E_tau the injection of tau moments into the test rows,
so all element products are stacked ``(T, ...)`` array operations.  No
product of W and Z is kept: each linearization forms the whitened source
z = Z (N + F_L) and Z D once, and the right-hand side W_tau^T z - (Z D)^T z
(psi rows) and the D_N correction -(Z D)^T W_tau come from those.

The direct linearized solve condenses the interior fields element by
element and solves the skeleton (trace) system: q once per mesh, psi per
evaluation, as the nonlinear source changes only the psi rows.  The psi
elimination works from the tau rows of W with q eliminated, formed per
evaluation and not kept, and applies one batched inverse per element.
Within one nonlinear solve it builds the trace system's sparse pattern once,
from the skeleton node pairs the elements couple, and factors it once: later
linearizations fill the same pattern and solve by flexible GMRES
right-preconditioned with the first LU, started from the traces of the
iterate, and refactor only when GMRES misses a small iteration cap or a step
fails to halve its residual.  That pattern and LU live in a cache the caller
owns and frees, never on the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import STANDARD, ElementCache, _cholesky, _solve_lower
from .krylov import KrylovParams, krylov_solve
from .problems import ProblemSpec
from .spaces import TestSpace, TrialSpace, interpolate_boundary

# lagged trace solve: a few FGMRES steps preconditioned with an earlier LU
# reach the direct solve's accuracy, each step cutting the residual 30-fold
# or more; past the cap, or at a step that does not halve it, the LU is renewed
_LAGGED_GMRES = KrylovParams(restart=20, rtol=1e-12, max_iters=20)
_LAGGED_STALL = 0.5


@dataclass(frozen=True)
class _TracePattern:
    """CSC pattern of the free-free trace system of one mesh, indexed by the
    flattened element Schur-block entries: ``slot`` gives each entry's data
    position, ``len(indices)`` for entries that touch a boundary DOF."""

    slot: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _factor_trace(S: sp.csc_matrix):
    """Sparse LU of a trace matrix, symmetric or nearly so (the condensed
    solve's D_N correction): SuperLU's symmetric mode keeps fill-in low."""
    return spla.splu(S, permc_spec="MMD_AT_PLUS_A",
                     options=dict(SymmetricMode=True, DiagPivotThresh=0.01))


class GlobalState:
    """Stacked element systems plus global sparse operators for one mesh."""

    def __init__(self, mesh, problem: ProblemSpec, k: int, s: int = 2,
                 norm: str = STANDARD):
        self.mesh = mesh
        self.problem = problem
        self.trial = TrialSpace(mesh, k)
        self.test = TestSpace(k, s)
        self.cache = ElementCache(mesh, self.trial, self.test, norm=norm)
        self.bdata = interpolate_boundary(self.trial, problem.psi_d)
        self.n_total = self.trial.n_total
        self.free = np.ones(self.n_total, dtype=bool)
        self.free[self.bdata.dofs] = False

        n = self.test.nks
        self._tau = slice(2 * n, 3 * n)
        self._c_psi = slice(2 * self.trial.nk, 3 * self.trial.nk)
        self.L = self.cache.linear_source(problem)      # F_L moments (T, nks)
        self._A0 = None
        self._F = self._FP = self._H = None

    # -- trial vector helpers ------------------------------------------

    def initial_guess(self) -> np.ndarray:
        U = np.zeros(self.n_total)
        U[self.bdata.dofs] = self.bdata.values
        return U

    def apply_boundary(self, U: np.ndarray) -> np.ndarray:
        U = U.copy()
        U[self.bdata.dofs] = self.bdata.values
        return U

    def interior_coeffs(self, U: np.ndarray):
        """Stacked interior coefficients, views of U: q (T, 2, nk), psi (T, nk)."""
        tr = self.trial
        T = self.mesh.n_triangles
        return (U[tr.offset_q:tr.offset_psi].reshape(T, 2, tr.nk),
                U[tr.offset_psi:tr.offset_qhat].reshape(T, tr.nk))

    def _scatter(self, loc: np.ndarray) -> np.ndarray:
        """Sum stacked (T, ncols) element vectors into the trial layout."""
        return np.bincount(self.cache.cols.ravel(), loc.ravel(),
                           minlength=self.n_total)

    # -- residual and energy -------------------------------------------

    def sources(self, U: np.ndarray):
        """Per-element nonlinear moments (N, D) at the current psi, batched
        over all elements: N is (T, nks), D is (T, nks, nk)."""
        _, psi_c = self.interior_coeffs(U)
        return self.cache.source_moments(psi_c @ self.cache.uv.T, self.problem)

    def _whitened_source(self, N: np.ndarray) -> np.ndarray:
        """z = Z (N + F_L), the (T, nks) tau rows of L^{-1} E_tau (N + F_L)."""
        return np.einsum("tij,tj->ti", self.cache.Z, N + self.L)

    def _whitened_residual(self, U: np.ndarray, N: np.ndarray) -> np.ndarray:
        """L^{-1} r per element: W u - z on the tau rows."""
        y = np.einsum("tij,tj->ti", self.cache.W, U[self.cache.cols])
        y[:, self._tau] -= self._whitened_source(N)
        return y

    def energy_residual(self, U: np.ndarray):
        """(E_total, per-element E_K) with E_total**2 = sum E_K**2."""
        N, _ = self.sources(U)
        y = self._whitened_residual(U, N)
        E2 = np.einsum("ti,ti->t", y, y)
        return float(np.sqrt(E2.sum())), np.sqrt(E2)

    # -- normal operator -----------------------------------------------

    def normal_matrix_static(self) -> sp.csr_matrix:
        """B_L^T G^{-1} B_L assembled once per mesh (symmetric part)."""
        if self._A0 is None:
            W, c = self.cache.W, self.cache.cols
            m = c.shape[1]
            A = sp.coo_matrix(
                ((np.swapaxes(W, 1, 2) @ W).ravel(),
                 (np.repeat(c, m, axis=1).ravel(), np.tile(c, (1, m)).ravel())),
                shape=(self.n_total, self.n_total),
            )
            self._A0 = A.tocsr()
        return self._A0

    def normal_matrix(self, D: np.ndarray) -> sp.csr_matrix:
        """A = J^T(U) G^{-1} B_L at the source derivative moments D of U
        (``sources(U)[1]``); the static SPD matrix when D vanishes."""
        A = self.normal_matrix_static()
        active = np.nonzero(np.any(D, axis=(1, 2)))[0]
        if len(active) == 0:
            return A
        # correction -(Z D)^T W_tau = (-D_N)^T (G^{-1} B_L) in the psi block rows
        ZD = self.cache.Z[active] @ D[active]
        C_el = -np.swapaxes(ZD, 1, 2) @ self.cache.W[active, self._tau]
        c = self.cache.cols[active]
        pr = self.trial.offset_psi + self.trial.nk * active[:, None] + np.arange(self.trial.nk)
        C = sp.coo_matrix(
            (C_el.ravel(),
             (np.repeat(pr, c.shape[1], axis=1).ravel(), np.tile(c, (1, pr.shape[1])).ravel())),
            shape=(self.n_total, self.n_total),
        )
        return (A + C.tocsr()).tocsr()

    def _element_rhs(self, z: np.ndarray, ZD: np.ndarray) -> np.ndarray:
        """Stacked (T, ncols) element parts of J^T G^{-1} (B_N(U) + F_L) from
        the whitened source z and ZD = Z D: W_tau^T z, less ZD^T z in psi."""
        b = np.einsum("tji,tj->ti", self.cache.W[:, self._tau], z)
        b[:, self._c_psi] -= np.einsum("tji,tj->ti", ZD, z)
        return b

    def fixed_point_rhs(self, U: np.ndarray, N=None, D=None) -> np.ndarray:
        """b = J^T(U) G^{-1} (B_N(U) + F_L) on the full trial layout."""
        if N is None or D is None:
            N, D = self.sources(U)
        return self._scatter(self._element_rhs(self._whitened_source(N), self.cache.Z @ D))

    def _trace_pattern(self) -> _TracePattern:
        """Pattern of the free trace system, from the pairs of nodes that the
        elements couple; a node is an edge (qhat and interior psihat DOFs) or
        a vertex (psihat).  A column lists qhat by edge, then free vertices,
        then free interior psihat by edge, so an entry's slot is its column
        start plus its row node's offset there (per kind) plus its index."""
        tr, mesh = self.trial, self.mesh
        k, E, V = tr.k, mesh.n_edges, mesh.n_vertices
        off = tr.offset_qhat
        c_t = self.cache.cols[:, 3 * tr.nk:] - off       # (T, m) trace DOFs
        T, m = c_t.shape
        free_t = self.free[off:]
        fidx = np.cumsum(free_t) - 1                     # free index of a trace DOF
        # node (edges, then vertices), kind (qhat, vertex psihat, interior
        # psihat) and index within the node of each trace DOF
        node = np.concatenate([np.repeat(np.arange(E), k + 1), E + np.arange(V),
                               np.repeat(np.arange(E), k)])
        kind = np.repeat([0, 1, 2], [E * (k + 1), V, E * k])
        pos = np.concatenate([np.tile(np.arange(k + 1), E), np.zeros(V, dtype=np.int64),
                              np.tile(np.arange(k), E)])
        cnt = np.bincount(3 * node[free_t] + kind[free_t], minlength=3 * (E + V)).reshape(-1, 3)
        nodes = np.concatenate([mesh.tri_edges, E + mesh.triangles], axis=1)
        pairs, inv = np.unique((nodes[:, :, None] * (E + V) + nodes[:, None, :]).ravel(),
                               return_inverse=True)
        col_node = pairs // (E + V)
        first = np.diff(col_node, prepend=-1) > 0
        start, group = np.flatnonzero(first), np.cumsum(first) - 1
        c = cnt[pairs % (E + V)]
        excl = np.cumsum(c, axis=0) - c
        tot = np.add.reduceat(c, start, axis=0)           # per column node and kind
        pair_off = excl - excl[start][group] + (np.cumsum(tot, axis=1) - tot)[group]
        nnz = np.zeros(E + V, dtype=np.int64)
        nnz[col_node[start]] = tot.sum(axis=1)
        indptr = np.concatenate([[0], np.cumsum(nnz[node[free_t]])]).astype(np.int32)
        # row offset of each local DOF within each of the element's nodes
        ln = np.argmax(nodes[:, None, :] == node[c_t][:, :, None], axis=2)   # (T, m)
        pair = np.take_along_axis(inv.reshape(T, 6, 6), ln[:, None], axis=2)  # (T, 6, m)
        row_off = (pair_off[pair, kind[c_t][:, None]] + pos[c_t][:, None]).astype(np.int32)
        fr = free_t[c_t]
        ff = fr[:, :, None] & fr[:, None, :]
        slot = (indptr[fidx[c_t]][:, None, :]
                + np.swapaxes(np.take_along_axis(row_off, ln[:, :, None], axis=1), 1, 2))
        slot = np.where(ff, slot, indptr[-1]).ravel()
        indices = np.empty(indptr[-1], dtype=np.int32)
        indices[slot[ff.ravel()]] = np.broadcast_to(fidx[c_t][:, :, None], (T, m, m))[ff]
        return _TracePattern(slot=slot, indices=indices, indptr=indptr)

    def solve_linearized(self, N, D, cache: dict | None = None,
                         U0: np.ndarray | None = None) -> np.ndarray:
        """Solve A x = b by local elimination of interior fields.

        The interior (q, psi) columns couple only within their own element,
        so they are condensed out and only the skeleton system S (normal
        traces plus psihat) is solved globally.  D enters only the psi rows,
        so q is eliminated once per state and each call eliminates psi with
        one batched nk x nk inverse, from W_hat = W_tau,r - W_tau,q F, the
        tau rows of W with q eliminated (formed per call, not kept).
        Boundary data is lifted element by element: each element right-hand
        side loses S_K g_K, with g_K the boundary values on the element's
        trace DOFs and 0 elsewhere.  Returns the full trial vector with
        boundary values applied.

        ``cache`` (a dict owned by the caller, for one GlobalState) carries
        work from one call to the next.  The first call stores the CSC
        pattern of S with the scatter map that fills it, and the sparse LU
        of S.  Later calls fill S with one ``bincount`` and solve it by
        flexible GMRES right-preconditioned with that LU, to a relative
        residual of ``_LAGGED_GMRES.rtol``; if GMRES misses its iteration
        cap, or a step fails to halve its residual estimate (the LU no
        longer fits, as after the initial guess), S is refactored and solved
        directly, and the new LU is kept.  The caller empties the cache to
        free the LU.  Without a cache, every call factors afresh.

        ``U0``, the iterate at which N and D were taken, starts the lagged
        GMRES from its free traces; near convergence they are close to the
        solution.  Without it GMRES starts from zero.  The result does not
        depend on ``U0`` beyond the GMRES tolerance.
        """
        cache = {} if cache is None else cache
        if "pattern" not in cache:
            cache["pattern"] = self._trace_pattern()
        p = cache["pattern"]
        nk = self.trial.nk
        nq, nk3 = 2 * nk, 3 * nk
        off = self.trial.offset_qhat
        W = self.cache.W
        if self._H is None:
            # once per state, with r the (psi, trace) columns of A = W^T W and
            # A_qq = L L^T: F = A_qq^{-1} A_qr, FP = A_qq^{-1} W_tau[q]^T and
            # the reduced block H = A_rr - A_qr^T F, so that x_q = FP z - F x_r
            W_q, W_r = W[:, :, :nq], W[:, :, nq:]
            A_qr = np.swapaxes(W_q, 1, 2) @ W_r
            L = _cholesky(np.swapaxes(W_q, 1, 2) @ W_q, "q block")
            sol = np.concatenate([A_qr, np.swapaxes(W_q[:, self._tau], 1, 2)], axis=2)
            _solve_lower(L, _solve_lower(L, sol), transpose=True)
            self._F, self._FP = sol[:, :, :A_qr.shape[2]], sol[:, :, A_qr.shape[2]:]
            self._H = np.swapaxes(W_r, 1, 2) @ W_r - np.swapaxes(A_qr, 1, 2) @ self._F
        F, FP, H = self._F, self._FP, self._H

        # with W_hat = W_tau,r - W_tau,q F the tau rows of W once q is
        # eliminated, D_N turns the psi rows of H into H_psi = H[psi] -
        # (Z D)^T W_hat, and the right-hand side c = b_r - F^T b_q into
        # W_hat^T z, less (Z D)^T (z - W_tau,q y_q) in psi (y_q = A_qq^{-1} b_q)
        z, ZD = self._whitened_source(N), self.cache.Z @ D
        # (W_hat is the largest temporary: subtract in place, free it early)
        W_tq = W[:, self._tau, :nq]
        W_hat = W_tq @ F
        np.subtract(W[:, self._tau, nq:], W_hat, out=W_hat)
        ZDt = np.swapaxes(ZD, 1, 2)
        H_psi = H[:, :nk] - ZDt @ W_hat
        y_q = np.einsum("tij,tj->ti", FP, z)
        c = np.einsum("tji,tj->ti", W_hat, z)
        c[:, :nk] -= np.einsum("tij,tj->ti", ZDt, z - np.einsum("tij,tj->ti", W_tq, y_q))
        del W_hat

        sol = np.linalg.inv(H_psi[:, :, :nk]) @ np.concatenate(
            [H_psi[:, :, nk:], c[:, :nk, None]], axis=2)
        X, y_psi = sol[:, :, :-1], sol[:, :, -1]
        H_tp = H[:, nk:, :nk]
        S_el = H[:, nk:, nk:] - H_tp @ X               # (T, ntr, ntr)
        U = self.initial_guess()
        c_t = self.cache.cols[:, nk3:]
        r_el = (c[:, nk:] - np.einsum("tij,tj->ti", H_tp, y_psi)
                - np.einsum("tij,tj->ti", S_el, U[c_t]))

        n_f = len(p.indptr) - 1
        S = sp.csc_matrix((np.bincount(p.slot, S_el.ravel())[:len(p.indices)], p.indices,
                           p.indptr), shape=(n_f, n_f))
        free_t = self.free[off:]
        b_f = np.bincount((c_t - off).ravel(), r_el.ravel(), minlength=len(free_t))[free_t]

        x_f = None
        if "lu" in cache:
            x, info = krylov_solve(S, b_f, M=cache["lu"].solve, params=_LAGGED_GMRES,
                                   x0=None if U0 is None else U0[off:][free_t],
                                   stall=_LAGGED_STALL)
            if info["converged"]:
                x_f = x
        if x_f is None:
            cache["lu"] = _factor_trace(S)
            x_f = cache["lu"].solve(b_f)

        U[off:][free_t] = x_f
        x_r = U[self.cache.cols[:, nq:]]               # (psi, trace) per element
        x_r[:, :nk] = y_psi - np.einsum("tij,tj->ti", X, x_r[:, nk:])
        U[self.cache.cols[:, :nq]] = y_q - np.einsum("tij,tj->ti", F, x_r)
        U[self.cache.cols[:, nq:nk3]] = x_r[:, :nk]
        return U

    # -- boundary elimination ------------------------------------------

    def constrain(self, A: sp.csr_matrix, b: np.ndarray):
        """Restrict A x = b to free DOFs, moving boundary data to the RHS."""
        free = self.free
        b_f = (b - A @ self.initial_guess())[free]
        A_ff = A[free][:, free].tocsc()
        return A_ff, b_f

    def expand(self, x_f: np.ndarray) -> np.ndarray:
        U = self.initial_guess()
        U[self.free] = x_f
        return U

    # -- field evaluation ----------------------------------------------

    # reference points are shared (n, 2) or per element (m, n, 2); each
    # element's values come from its own product, as in a one-element call

    def eval_psi(self, U: np.ndarray, tri, ref_points: np.ndarray) -> np.ndarray:
        """psi at n reference points of element ``tri``: (n,), or (m, n) for
        an index array of m elements."""
        vals = self.trial.basis.eval(ref_points)
        return (vals @ self.interior_coeffs(U)[1][tri][..., None])[..., 0]

    def eval_q(self, U: np.ndarray, tri, ref_points: np.ndarray) -> np.ndarray:
        """q at n reference points of element ``tri``: (n, 2), or (m, n, 2)
        for an index array of m elements."""
        vals = self.trial.basis.eval(ref_points)
        return vals @ np.swapaxes(self.interior_coeffs(U)[0][tri], -1, -2)

