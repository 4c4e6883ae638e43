"""Element-level assembly of the ultraweak bilinear blocks and Gram matrices.

All elements are built at once as stacked ``(T, ...)`` arrays: the dense
rectangular matrices B_K (enriched test rows x local trial columns) and the
SPD Gram matrices G_K of the broken test inner product.  A volume term
depends on the element only through det, inv_T and the vertex radii (r is
affine), so each volume block is one GEMM of (T, m) element coefficients
with m reference tables; the edge terms gather reference tables by local
vertex pair.  G_K enters only through its inverse and is factored by its
phi and tau blocks, L_p = chol(G_pp) and L_t = chol(G_tt - C C^T) with
C = G_tp L_p^{-T} (zero in the standard norm).  Only W_K = L_K^{-1} B_K and
Z_K = L_t^{-1} are kept, with the quadrature points and weights and the DOF
map.  The source moments N_K, D_K, L_K, nonlinear in psi, stay quadrature
sums: one call of each source function for all elements.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

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


def _ref(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference table sum_q w[q] a[q, i] b[q, j]."""
    return (a * w[:, None]).T @ b


def _unit(shape, i: int, j: int) -> np.ndarray:
    """kron(_unit(shape, i, j), X) puts X at block (i, j) of a grid."""
    e = np.zeros(shape)
    e[i, j] = 1.0
    return e


def _gemm(coefs, tables) -> np.ndarray:
    """Stacked sum_m coefs[m][t] tables[m], one (T, m) x (m, .) GEMM."""
    tables = np.asarray(tables)
    return (np.stack(coefs, axis=1) @ tables.reshape(len(tables), -1)).reshape(
        -1, *tables.shape[1:])


def _put_cols(dst: np.ndarray, src: np.ndarray, runs) -> None:
    """Scatter the columns of src, in order, into the column slices ``runs``
    of dst (slices, not an index array: several times faster)."""
    i = 0
    for run in runs:
        dst[..., run] = src[..., i:i + run.stop - run.start]
        i += run.stop - run.start


def _cholesky(G: np.ndarray, label: str = "Gram") -> np.ndarray:
    """C-contiguous stacked SPD G overwritten by its lower Cholesky factors:
    dpotrf of the upper factor L^T on each F-contiguous transposed view.  A
    failure names ``label`` and the element."""
    for t, Gt in enumerate(G):
        if dpotrf(Gt.T, overwrite_a=1)[1]:
            raise RuntimeError(f"{label} Cholesky failed on element {t}")
    return G


def _solve_lower(L: np.ndarray, X: np.ndarray, transpose: bool = False) -> np.ndarray:
    """X[t] <- L[t]^{-1} X[t] (L[t]^{-T} X[t] if ``transpose``) for
    C-contiguous stacks, L lower triangular, in place: L Y = X is
    Y^T L^T = X^T, one right-sided dtrsm per element on the F-contiguous
    transposed views, so nothing is copied."""
    for Lt, Xt in zip(L, X):
        dtrsm(1.0, Lt.T, Xt.T, side=1, trans_a=int(transpose), overwrite_b=1)
    return X


class ElementCache:
    """Whitened element operators and quadrature data of one mesh.

    For T elements, n = test.nks test functions per component and nq volume
    quadrature points, with G_K = L_K L_K^T the block Cholesky factorization
    of the Gram matrix (L_t its tau block) and E_tau the injection of tau
    moments into the test rows:

    - ``W``    (T, 3n, ncols): L_K^{-1} B_K, exactly zero where B_K's phi
      rows are (qhat columns) and, in the standard norm, where its tau
      rows are (psi and psihat columns);
    - ``Z``    (T, n, n): the tau block of L_K^{-1} E_tau, which is L_t^{-1};
    - ``pts``  (T, nq, 2) and ``w`` (T, nq): physical quadrature points and
      weights;
    - ``cols`` (T, ncols): local-to-global trial DOF map.

    B_K, G_K and their factors are not kept; ``matrices()`` assembles B_K
    and G_K again from the same kernels.  Test rows are ordered (phi_r,
    phi_z, tau), trial columns as in ``TrialSpace.element_dofs``.
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
        self.tv = test.basis.eval(self.vol_rule.points)
        self.uv = trial.basis.eval(self.vol_rule.points)
        # TU[q, i * nk + j] = tv[q, i] uv[q, j]: the D moments are one GEMM
        self.TU = (self.tv[:, :, None] * self.uv[:, None, :]).reshape(len(self.tv), -1)
        self.n = n = test.nks
        self.nk = nk = trial.nk
        self.n_cols = nc = trial.n_local()
        # column runs of B_K's nonzero phi rows (all but qhat) and tau rows
        # (q and qhat)
        self.c_phi = (slice(0, 3 * nk), slice(nc - 3 * (k + 2), nc))
        self.c_tau = (slice(0, 2 * nk), slice(3 * nk, nc - 3 * (k + 2)))

        _, _, det = mesh.geometry
        elements = np.arange(mesh.n_triangles)
        self.w = self.vol_rule.weights * det[:, None]
        self.pts = mesh.map_to_physical(elements, self.vol_rule.points)
        self.cols = trial.element_dofs(elements)

        G_pp, G_tt, G_tp = self._gram_blocks()
        L_p = _cholesky(G_pp)
        B_p, B_t = self._b_blocks()
        _solve_lower(L_p, B_p)                                   # W_phi
        if G_tp is not None:
            Ct = _solve_lower(L_p, np.swapaxes(G_tp, 1, 2).copy())  # C^T
            G_tt -= np.swapaxes(Ct, 1, 2) @ Ct
        del L_p, G_pp
        L_t = _cholesky(G_tt)
        self.W = W = np.zeros((len(B_p), 3 * n, nc))
        _put_cols(W[:, :2 * n], B_p, self.c_phi)
        del B_p
        t_cols = self.c_tau
        if G_tp is not None:  # the tau rows B_tau - C W_phi are dense
            _put_cols(W[:, 2 * n:], B_t, self.c_tau)
            B_t, t_cols = W[:, 2 * n:] - np.swapaxes(Ct, 1, 2) @ W[:, :2 * n], (slice(0, nc),)
        rhs = np.concatenate([B_t, np.broadcast_to(np.eye(n), (len(B_t), n, n))], axis=2)
        del B_t
        _solve_lower(L_t, rhs)                                   # [W_tau | Z]
        _put_cols(W[:, 2 * n:], rhs, t_cols)
        self.Z = np.ascontiguousarray(rhs[..., -n:])

    # -- element matrices ----------------------------------------------

    def matrices(self):
        """Stacked element matrices B (T, 3n, ncols) and Gram matrices
        G (T, 3n, 3n), assembled from the block kernels."""
        n = self.n
        B_p, B_t = self._b_blocks()
        B = np.zeros((len(B_p), 3 * n, self.n_cols))
        _put_cols(B[:, :2 * n], B_p, self.c_phi)
        _put_cols(B[:, 2 * n:], B_t, self.c_tau)
        G_pp, G_tt, G_tp = self._gram_blocks()
        if G_tp is None:
            G_tp = np.zeros((len(G_tt), n, 2 * n))
        return B, np.block([[G_pp, np.swapaxes(G_tp, 1, 2)], [G_tp, G_tt]])

    def _volume_data(self):
        """Reference weights, barycentric coordinates (3, nq) and test
        gradients (2, nq, n); element inv_T, det and vertex radii (T, 3)."""
        mesh, (x, y) = self.mesh, self.vol_rule.points.T
        _, inv_T, det = mesh.geometry
        return (self.vol_rule.weights, np.stack([1.0 - x - y, x, y]),
                np.moveaxis(self.test.basis.grad(self.vol_rule.points), -1, 0),
                inv_T, det, mesh.vertices[mesh.triangles, 0])

    def _b_blocks(self):
        """B_K's phi rows on the columns ``c_phi``, B_p (T, 2n, .), and its
        tau rows on ``c_tau``, B_t (T, n, .)."""
        n, nk = self.n, self.nk
        mesh, trial = self.mesh, self.trial
        T, kq, kp = mesh.n_triangles, trial.k + 1, trial.k + 2
        wv, lam, g, inv_T, det, r_v = self._volume_data()
        # volume terms, zero on the edge columns: (r q, phi) = det sum_v r_v
        # Mr_v on both components, -(psi, div phi) and -(q, grad tau) =
        # -det sum_b inv_T[:, a, b] D_b on component a
        D = [_ref(wv, gb, self.uv) for gb in g]
        ab = list(itertools.product(range(2), repeat=2))
        B_p = _gemm([det * r_v[:, v] for v in range(3)] + [det * inv_T[:, a, b] for a, b in ab],
                    np.pad([np.kron(np.eye(2, 3), _ref(wv * lv, self.tv, self.uv)) for lv in lam]
                           + [np.kron(_unit((2, 3), a, 2), -D[b]) for a, b in ab],
                           ((0, 0), (0, 0), (0, 3 * kp))))
        B_t = _gemm([det * inv_T[:, a, b] for a, b in ab],
                    np.pad([np.kron(_unit((1, 2), 0, a), -D[b]) for a, b in ab],
                           ((0, 0), (0, 0), (0, 3 * kq))))

        # skeleton terms: the test functions on local edge le, traversed from
        # its lower to its higher global vertex, depend only on the local
        # indices (l_lo, l_hi) of those vertices, so six reference tables
        # serve every element
        t_e, w_e = self.edg_rule.points[:, 0], self.edg_rule.weights
        V = _REF_VERTS[:, None, None]     # edge points (a, b, q) from vertex a to b
        tw = self.test.basis.eval(V + t_e[:, None] * (_REF_VERTS[:, None] - V)) * w_e[:, None]
        Eq = np.swapaxes(tw, 2, 3) @ trial.qhat_basis.eval(t_e)     # a == b unused
        Ep = np.swapaxes(tw, 2, 3) @ trial.psihat_basis.eval(t_e)
        e = mesh.tri_edges
        lo_hi = mesh.edges[e]                                  # (T, 3, 2)
        loc = np.argmax(mesh.triangles[:, None, None, :] == lo_hi[..., None], axis=-1)
        l_lo, l_hi = loc[..., 0], loc[..., 1]
        sign = mesh.tri_edge_sign
        length = mesh.edge_lengths[e]
        n_out = sign[..., None] * mesh.edge_normals[e]         # (T, 3, 2)
        # <qhat_n, tau> with the orientation sign, <psihat, n . phi> with the
        # element outward normal, through views splitting the edge columns
        np.multiply(Eq[l_lo, l_hi].transpose(0, 2, 1, 3), (sign * length)[:, None, :, None],
                    out=B_t[..., 2 * nk:].reshape(T, n, 3, kq))
        np.multiply(Ep[l_lo, l_hi].transpose(0, 2, 1, 3)[:, None],
                    (n_out * length[..., None]).transpose(0, 2, 1)[:, :, None, :, None],
                    out=B_p[..., 3 * nk:].reshape(T, 2, n, 3, kp))
        return B_p, B_t

    def _gram_blocks(self):
        """Gram blocks G_pp (T, 2n, 2n), G_tt (T, n, n) and G_tp (T, n, 2n),
        None in the standard norm, where it vanishes."""
        wv, lam, g, inv_T, det, r_v = self._volume_data()
        M = _ref(wv, self.tv, self.tv)
        K = [[_ref(wv, gb, gd) for gd in g] for gb in g]
        # ||phi||^2 + ||div phi||^2, the divergence term's block (a, c) being
        # sum_bd inv_T[:, a, b] inv_T[:, c, d] K_bd, and ||tau||^2 plus
        # ||grad tau||^2 (standard) or ||r phi - grad tau||^2 (adjoint graph)
        acbd = list(itertools.product(range(2), repeat=4))
        pp_coef = [det] + [det * inv_T[:, a, b] * inv_T[:, c, d] for a, c, b, d in acbd]
        pp_tab = [np.kron(np.eye(2), M)] + [np.kron(_unit((2, 2), a, c), K[b][d])
                                           for a, c, b, d in acbd]
        JJ = np.swapaxes(inv_T, 1, 2) @ inv_T
        ab = list(itertools.product(range(2), repeat=2))
        G_tt = _gemm([det] + [det * JJ[:, b, d] for b, d in ab], [M] + [K[b][d] for b, d in ab])
        if self.norm == STANDARD:
            return _gemm(pp_coef, pp_tab), G_tt, None
        # with r = sum_v r_v lam_v: ||r phi||^2 = det sum_vu r_v r_u R_vu per
        # component, -(r phi_a, grad tau) = -det sum_bv inv_T[:, a, b] r_v C_bv
        vu = list(itertools.product(range(3), repeat=2))
        pp_coef += [det * r_v[:, v] * r_v[:, u] for v, u in vu]
        pp_tab += [np.kron(np.eye(2), _ref(wv * lam[v] * lam[u], self.tv, self.tv))
                   for v, u in vu]
        abv = list(itertools.product(range(2), range(2), range(3)))
        G_tp = _gemm([det * inv_T[:, a, b] * r_v[:, v] for a, b, v in abv],
                     [np.kron(_unit((1, 2), 0, a), -_ref(wv * lam[v], g[b], self.tv))
                      for a, b, v in abv])
        return _gemm(pp_coef, pp_tab), G_tt, G_tp

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

