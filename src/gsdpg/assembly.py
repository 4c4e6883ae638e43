"""Element-level assembly of the ultraweak bilinear blocks and Gram matrices.

All elements are built at once as stacked ``(T, ...)`` arrays, with no loop
over elements: the dense rectangular matrices B_K (enriched test rows x
local trial columns) and the SPD Gram matrices G_K = L_K L_K^T of the broken
test inner product.  G_K enters only through its inverse, so one triangular
solve per element whitens B_K, and only L_K^{-1} B_K is kept, with the
quadrature points and weights and the DOF map.
Elements share the reference tables and differ only through their affine
maps, edge orientations and the radius r at the quadrature points.  The
source moments N_K, D_K, L_K of the nonlinear right-hand side are computed
for all elements with one call of each source function.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .basis import (
    default_edge_degree,
    default_volume_degree,
    edge_rule,
    triangle_rule,
)
from .mesh import Mesh
from .spaces import _REF_VERTS, TestSpace, TrialSpace

STANDARD = "standard"
ADJOINT_GRAPH = "adjoint-graph"


class SourceEvaluationError(Exception):
    pass


def _moments(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked sum_q a[t, q, i] w[t, q] b[t, q, j]; a and b may be shared
    reference tables (nq, .)."""
    return np.swapaxes(a * w[..., None], -1, -2) @ b


class ElementCache:
    """Whitened element operators and quadrature data of one mesh.

    For T elements, n = test.nks test functions per component and nq volume
    quadrature points, with G_K = L_K L_K^T the Cholesky factorization of
    the Gram matrix and E_tau the injection of tau moments into the test
    rows:

    - ``W``    (T, 3n, ncols): L_K^{-1} B_K;
    - ``Z``    (T, n, n): tau block of L_K^{-1} E_tau (L_K is lower
      triangular and the tau rows come last, so L_K^{-1} E_tau vanishes
      above them);
    - ``pts``  (T, nq, 2) and ``w`` (T, nq): physical quadrature points and
      weights;
    - ``cols`` (T, ncols): local-to-global trial DOF map.

    B_K, G_K and L_K are not kept; ``matrices()`` builds B_K and G_K again.
    Test rows are ordered (phi_r, phi_z, tau), trial columns as in
    ``TrialSpace.element_dofs``.
    """

    def __init__(self, mesh: Mesh, trial: TrialSpace, test: TestSpace,
                 norm: str = STANDARD):
        if norm not in (STANDARD, ADJOINT_GRAPH):
            raise ValueError(f"unknown test norm kind {norm!r}")
        self.mesh = mesh
        self.trial = trial
        self.test = test
        self.norm = norm

        k, s = trial.k, test.s
        self.vol_rule = triangle_rule(default_volume_degree(k, s))
        self.edg_rule = edge_rule(default_edge_degree(k, s))

        # reference tables shared by all elements
        self.tv, _ = test.basis.eval(self.vol_rule.points)
        self.uv, _ = trial.q_basis.eval(self.vol_rule.points)
        # TU[q, i * nk + j] = tv[q, i] uv[q, j]: the D moments are one GEMM
        self.TU = (self.tv[:, :, None] * self.uv[:, None, :]).reshape(len(self.tv), -1)
        self.n = test.nks
        self.nk = trial.nk
        self.n_cols = trial.n_local()

        _, _, det = mesh.geometry
        elements = np.arange(mesh.n_triangles)
        self.w = self.vol_rule.weights * det[:, None]
        self.pts = mesh.map_to_physical(elements, self.vol_rule.points)
        self.cols = trial.element_dofs(elements)

        B, G = self.matrices()
        L = self._cholesky(G)
        del G  # freed before W is allocated
        # per-element triangular solves on [B_K | E_tau] beat a stacked solve
        n, nc = self.n, self.n_cols
        tau = slice(2 * n, 3 * n)
        self.W = W = np.empty_like(B)
        self.Z = Z = np.empty((len(B), n, n))
        rhs = np.zeros((3 * n, nc + n))
        rhs[tau, nc:] = np.eye(n)
        for t in range(len(B)):
            rhs[:, :nc] = B[t]
            X = solve_triangular(L[t], rhs, lower=True, check_finite=False)
            W[t] = X[:, :nc]
            Z[t] = X[tau, nc:]

    # -- element matrices ----------------------------------------------

    def matrices(self):
        """Stacked element matrices B (T, 3n, ncols) and Gram matrices
        G (T, 3n, 3n), built from the quadrature definitions."""
        _, inv_T, _ = self.mesh.geometry
        _, tg_ref = self.test.basis.eval(self.vol_rule.points)
        # physical test gradients: g_a[t, q, i] = inv_T[t, a, b] g_ref[q, i, b]
        gx = np.einsum("tb,qib->tqi", inv_T[:, 0], tg_ref)
        gy = np.einsum("tb,qib->tqi", inv_T[:, 1], tg_ref)
        return self._element_matrices(gx, gy), self._gram(gx, gy)

    def _element_matrices(self, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        n, nk = self.n, self.nk
        mesh, trial = self.mesh, self.trial
        T = mesh.n_triangles
        w, r = self.w, self.pts[:, :, 0]

        B = np.zeros((T, 3 * n, self.n_cols))
        sl_phir = slice(0, n)
        sl_phiz = slice(n, 2 * n)
        sl_tau = slice(2 * n, 3 * n)
        c_qr = slice(0, nk)
        c_qz = slice(nk, 2 * nk)
        c_psi = slice(2 * nk, 3 * nk)

        # (r q, phi): componentwise weighted mass
        Mr = _moments(self.tv, w * r, self.uv)
        B[:, sl_phir, c_qr] = Mr
        B[:, sl_phiz, c_qz] = Mr
        # -(psi, div phi) and -(q, grad tau)
        Dx = _moments(gx, w, self.uv)
        Dy = _moments(gy, w, self.uv)
        B[:, sl_phir, c_psi] = -Dx
        B[:, sl_phiz, c_psi] = -Dy
        B[:, sl_tau, c_qr] = -Dx
        B[:, sl_tau, c_qz] = -Dy

        # skeleton terms: the test functions on local edge le, traversed from
        # its lower to its higher global vertex, depend only on the local
        # indices (l_lo, l_hi) of those vertices, so six reference tables
        # serve every element
        t_e = self.edg_rule.points[:, 0]
        qhat_vals, _ = trial.qhat_basis.eval(t_e)
        psihat_vals, _ = trial.psihat_basis.eval(t_e)
        kq, kp = trial.k + 1, trial.k + 2
        Eq = np.zeros((3, 3, n, kq))
        Ep = np.zeros((3, 3, n, kp))
        for a in range(3):
            for b in range(3):
                if a != b:
                    ref = _REF_VERTS[a] + t_e[:, None] * (_REF_VERTS[b] - _REF_VERTS[a])
                    tvals, _ = self.test.basis.eval(ref)
                    tw = tvals * self.edg_rule.weights[:, None]
                    Eq[a, b] = tw.T @ qhat_vals
                    Ep[a, b] = tw.T @ psihat_vals
        e = mesh.tri_edges
        lo_hi = mesh.edges[e]                                  # (T, 3, 2)
        loc = np.argmax(mesh.triangles[:, None, None, :] == lo_hi[..., None], axis=-1)
        l_lo, l_hi = loc[..., 0], loc[..., 1]
        sign = mesh.tri_edge_sign
        length = mesh.edge_lengths[e]
        n_out = sign[..., None] * mesh.edge_normals[e]         # (T, 3, 2)

        def by_edge(blocks):  # (T, 3, n, m) -> (T, n, 3m), local edges in order
            return blocks.transpose(0, 2, 1, 3).reshape(T, n, -1)

        c_qh = slice(3 * nk, 3 * nk + 3 * kq)
        c_ph = slice(3 * nk + 3 * kq, self.n_cols)
        # <qhat_n, tau> with the orientation sign
        B[:, sl_tau, c_qh] = by_edge((sign * length)[..., None, None] * Eq[l_lo, l_hi])
        # <psihat, n . phi> with the element outward normal
        Tp = length[..., None, None] * Ep[l_lo, l_hi]
        B[:, sl_phir, c_ph] = by_edge(n_out[..., 0, None, None] * Tp)
        B[:, sl_phiz, c_ph] = by_edge(n_out[..., 1, None, None] * Tp)
        return B

    def _gram(self, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        """Stacked symmetric Gram matrices."""
        n, tv, w = self.n, self.tv, self.w
        M = _moments(tv, w, tv)
        Kxx = _moments(gx, w, gx)
        Kxy = _moments(gx, w, gy)
        Kyy = _moments(gy, w, gy)
        G = np.zeros((len(w), 3 * n, 3 * n))
        blk = [slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)]
        # ||div phi||^2 plus the L2 mass of each component, in both norms
        G[:, blk[0], blk[0]] = M + Kxx
        G[:, blk[0], blk[1]] = Kxy
        G[:, blk[1], blk[0]] = np.swapaxes(Kxy, 1, 2)
        G[:, blk[1], blk[1]] = M + Kyy
        # ||grad tau||^2: standard, or ||r phi - grad tau||^2: adjoint graph
        G[:, blk[2], blk[2]] = M + Kxx + Kyy
        if self.norm == ADJOINT_GRAPH:
            wr = w * self.pts[:, :, 0]
            R2 = _moments(tv, wr * self.pts[:, :, 0], tv)
            G[:, blk[0], blk[0]] += R2
            G[:, blk[1], blk[1]] += R2
            G[:, blk[2], blk[0]] = -_moments(gx, wr, tv)
            G[:, blk[2], blk[1]] = -_moments(gy, wr, tv)
            G[:, :2 * n, blk[2]] = np.swapaxes(G[:, blk[2], :2 * n], 1, 2)
        return G

    @staticmethod
    def _cholesky(G: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            for t in range(len(G)):
                try:
                    np.linalg.cholesky(G[t])
                except np.linalg.LinAlgError as exc:
                    raise RuntimeError(f"Gram Cholesky failed on element {t}") from exc
            raise

    # -- source moments -------------------------------------------------

    def source_moments(self, psi_q: np.ndarray, problem):
        """Stacked tau moments (N, D) of F_N/r and its psi derivative.

        ``psi_q`` (T, nq) holds psi at the quadrature points; N is (T, n)
        and D is (T, n, nk).
        """
        r, z = self.pts[..., 0], self.pts[..., 1]
        fn = _finite("F_N", problem.f_nl(r, z, psi_q), r, z)
        dfn = _finite("dF_N/dpsi", problem.df_nl(r, z, psi_q), r, z)
        N = (self.w * fn / r) @ self.tv
        D = ((self.w * dfn / r) @ self.TU).reshape(len(r), self.n, self.nk)
        return N, D

    def linear_source(self, problem) -> np.ndarray:
        """Stacked (T, n) tau moments of F_L/r."""
        r, z = self.pts[..., 0], self.pts[..., 1]
        fl = _finite("F_L", problem.f_lin(r, z), r, z)
        return (self.w * fl / r) @ self.tv


def _finite(label: str, values, r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Source values broadcast to the point layout; non-finite ones raise."""
    vals = np.broadcast_to(np.asarray(values, dtype=float), r.shape)
    if not np.all(np.isfinite(vals)):
        i, q = np.argwhere(~np.isfinite(vals))[0]
        raise SourceEvaluationError(
            f"{label} non-finite on element {i} at point "
            f"({r[i, q]:.6g}, {z[i, q]:.6g})")
    return vals

