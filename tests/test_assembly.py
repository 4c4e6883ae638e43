import numpy as np
import pytest

from gsdpg.assembly import (
    ADJOINT_GRAPH,
    STANDARD,
    ElementCache,
    SourceEvaluationError,
    _cholesky,
)
from gsdpg.basis import triangle_rule
from gsdpg.mesh import Mesh, bisect_conforming, build_builtin_mesh, rectangle_curve
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

from gsdpg.problems import solovev_problem
from gsdpg.spaces import _REF_VERTS, TestSpace, TrialSpace


def small_mesh():
    return build_builtin_mesh(rectangle_curve(0.5, 1.5, 0.0, 1.0), (2, 2))


def axis_mesh():
    """Rectangle r in [1e-2, 1] with the elements at the axis midpoint
    bisected six times: r spans two orders of magnitude."""
    mesh = build_builtin_mesh(rectangle_curve(1e-2, 1.0, -0.5, 0.5), (4, 4))
    for _ in range(6):
        c = mesh.vertices[mesh.triangles].mean(axis=1)
        mesh = bisect_conforming(mesh, [np.argmin(np.hypot(c[:, 0], c[:, 1]))])
    return mesh


def make_cache(mesh, k=2, s=2, norm=STANDARD):
    trial = TrialSpace(mesh, k)
    test = TestSpace(k, s)
    return ElementCache(mesh, trial, test, norm=norm), trial, test


def project_on_element(mesh, basis, t, f):
    """Reference-orthonormal projection of a (polynomial) field onto P^k."""
    rule = triangle_rule(2 * basis.order + 4)
    vals = basis.eval(rule.points)
    phys = mesh.map_to_physical(t, rule.points)
    fv = np.array([f(p[0], p[1]) for p in phys])
    return (vals * rule.weights[:, None]).T @ fv


def interpolate_element_vector(cache, trial, t, psi, q):
    """Local trial vector whose fields and traces sample (psi, q) exactly."""
    mesh = cache.mesh
    nk = trial.nk
    u = np.zeros(trial.n_local())
    u[0:nk] = project_on_element(mesh, trial.basis, t, lambda r, z: q(r, z)[0])
    u[nk:2 * nk] = project_on_element(mesh, trial.basis, t, lambda r, z: q(r, z)[1])
    u[2 * nk:3 * nk] = project_on_element(mesh, trial.basis, t, psi)
    kq, kp = trial.k + 1, trial.k + 2
    for le in range(3):
        e = mesh.tri_edges[t, le]
        lo, hi = mesh.edges[e]
        n_glob = mesh.edge_normals[e]
        a, b = mesh.vertices[lo], mesh.vertices[hi]
        tq = trial.qhat_basis.nodes[:, None]
        tp = trial.psihat_basis.nodes[:, None]
        pq = a + tq * (b - a)
        pp = a + tp * (b - a)
        u[3 * nk + le * kq: 3 * nk + (le + 1) * kq] = [
            np.dot(q(p[0], p[1]), n_glob) for p in pq]
        off = 3 * nk + 3 * kq
        u[off + le * kp: off + (le + 1) * kp] = [psi(p[0], p[1]) for p in pp]
    return u


def reference_element(cache, t):
    """(B_K, G_K) of element t, built one element at a time from the
    quadrature definitions: the reference for the stacked kernel."""
    mesh, trial, test = cache.mesh, cache.trial, cache.test
    n, nk = test.nks, trial.nk
    _, inv_T, det = mesh.geometry
    rule = cache.vol_rule
    tv, tg_ref = test.basis.eval(rule.points), test.basis.grad(rule.points)
    uv = trial.basis.eval(rule.points)
    w = rule.weights * det[t]
    r = mesh.map_to_physical(t, rule.points)[:, 0]
    g = np.einsum("ab,qib->qia", inv_T[t], tg_ref)
    gx, gy = g[:, :, 0], g[:, :, 1]

    B = np.zeros((3 * n, trial.n_local()))
    phir, phiz, tau = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    qr, qz, psi = slice(0, nk), slice(nk, 2 * nk), slice(2 * nk, 3 * nk)
    Mr = (tv * (w * r)[:, None]).T @ uv
    B[phir, qr] = Mr
    B[phiz, qz] = Mr
    B[phir, psi] = -(gx * w[:, None]).T @ uv
    B[phiz, psi] = -(gy * w[:, None]).T @ uv
    B[tau, qr] = -(gx * w[:, None]).T @ uv
    B[tau, qz] = -(gy * w[:, None]).T @ uv
    t_e = cache.edg_rule.points[:, 0]
    qhat_vals = trial.qhat_basis.eval(t_e)
    psihat_vals = trial.psihat_basis.eval(t_e)
    kq, kp = trial.k + 1, trial.k + 2
    for le in range(3):
        e = mesh.tri_edges[t, le]
        sign, length = mesh.tri_edge_sign[t, le], mesh.edge_lengths[e]
        n_out = sign * mesh.edge_normals[e]
        lo, hi = mesh.edges[e]
        l_lo = int(np.nonzero(mesh.triangles[t] == lo)[0][0])
        l_hi = int(np.nonzero(mesh.triangles[t] == hi)[0][0])
        ref = _REF_VERTS[l_lo] + t_e[:, None] * (_REF_VERTS[l_hi] - _REF_VERTS[l_lo])
        tvals = test.basis.eval(ref)
        ds = cache.edg_rule.weights * length
        c_qh = 3 * nk + le * kq
        c_ph = 3 * nk + 3 * kq + le * kp
        B[tau, c_qh:c_qh + kq] += sign * (tvals * ds[:, None]).T @ qhat_vals
        Tp = (tvals * ds[:, None]).T @ psihat_vals
        B[phir, c_ph:c_ph + kp] += n_out[0] * Tp
        B[phiz, c_ph:c_ph + kp] += n_out[1] * Tp

    z = np.zeros_like(tv)
    if cache.norm == STANDARD:
        feats = [np.hstack([tv, z, z]), np.hstack([z, tv, z]),
                 np.hstack([gx, gy, z]), np.hstack([z, z, tv]),
                 np.hstack([z, z, gx]), np.hstack([z, z, gy])]
    else:
        rr = r[:, None]
        feats = [np.hstack([rr * tv, z, -gx]), np.hstack([z, rr * tv, -gy]),
                 np.hstack([gx, gy, z]), np.hstack([tv, z, z]),
                 np.hstack([z, tv, z]), np.hstack([z, z, tv])]
    G = sum((F * w[:, None]).T @ F for F in feats)
    return B, 0.5 * (G + G.T)


def lower_solve(L, X):
    """L^{-1} X as the right-sided dtrsm X^T L^{-T} of the kernel."""
    return dtrsm(1.0, L.T, X.T, side=1).T


def lower_cholesky(G):
    """Lower Cholesky factor as the kernel's dpotrf of the upper L^T."""
    return dpotrf(G.T)[0].T


def block_whitening(cache, B, G):
    """(W_K, Z_K) of one element by the definition: L_p = chol(G_pp),
    C = G_tp L_p^{-T}, L_t = chol(G_tt - C C^T), W_phi = L_p^{-1} B_phi and
    [W_tau | Z] = L_t^{-1} [B_tau - C W_phi | I], each solve on the columns
    where its right-hand side may be nonzero."""
    n = cache.n
    p, tau = slice(0, 2 * n), slice(2 * n, 3 * n)
    c_phi, c_tau = np.r_[cache.c_phi], np.r_[cache.c_tau]
    W = np.zeros_like(B)
    L_p = lower_cholesky(G[p, p])
    W[p, c_phi] = lower_solve(L_p, B[p][:, c_phi])
    S, R, cols = G[tau, tau], B[tau][:, c_tau], c_tau
    if cache.norm == ADJOINT_GRAPH:
        Ct = lower_solve(L_p, G[p, tau])
        S = S - Ct.T @ Ct
        R, cols = B[tau] - Ct.T @ W[p], np.arange(cache.n_cols)
    X = lower_solve(lower_cholesky(S), np.hstack([R, np.eye(n)]))
    W[tau, cols] = X[:, :-n]
    return W, X[:, -n:]


KERNEL_CASES = [(k, norm) for k in (1, 2, 3) for norm in (STANDARD, ADJOINT_GRAPH)]


class TestStackedKernel:
    @staticmethod
    def assert_matches_loop_reference(mesh, k, norm):
        cache, _, _ = make_cache(mesh, k=k, norm=norm)
        B_all, G_all = cache.matrices()
        for t in range(mesh.n_triangles):
            B, G = reference_element(cache, t)
            assert np.abs(B_all[t] - B).max() <= 1e-13 * np.abs(B).max()
            assert np.abs(G_all[t] - G).max() <= 1e-13 * np.abs(G).max()

    @pytest.mark.parametrize("k,norm", KERNEL_CASES)
    def test_matches_loop_reference(self, jittered_mesh, k, norm):
        self.assert_matches_loop_reference(jittered_mesh, k, norm)

    @pytest.mark.parametrize("k,norm", KERNEL_CASES)
    def test_matches_loop_reference_near_axis(self, k, norm):
        """The affine-r tables (r q, phi), ||r phi||^2 and (r phi, grad tau)
        on elements from r = 1e-2, where r varies by an order of magnitude
        within one element, to r = 1."""
        mesh = axis_mesh()
        r = mesh.vertices[mesh.triangles, 0]
        assert r.min() == 1e-2 and (r.max(axis=1) / r.min(axis=1)).max() > 10
        self.assert_matches_loop_reference(mesh, k, norm)

    @pytest.mark.parametrize("k,norm", KERNEL_CASES)
    def test_whitening_matches_per_element_reference(self, jittered_mesh, k, norm):
        """W = L^{-1} B and Z = tau block of L^{-1} E_tau, bit for bit as
        one block Cholesky factorization and block triangular solves per
        element."""
        cache, _, _ = make_cache(jittered_mesh, k=k, norm=norm)
        B, G = cache.matrices()
        for t in range(jittered_mesh.n_triangles):
            W, Z = block_whitening(cache, B[t], G[t])
            assert np.array_equal(cache.W[t], W)
            assert np.array_equal(cache.Z[t], Z)

    @pytest.mark.parametrize("k,norm", KERNEL_CASES)
    def test_whitened_blocks_match_gram_solve(self, jittered_mesh, k, norm):
        cache, _, _ = make_cache(jittered_mesh, k=k, norm=norm)
        A = np.swapaxes(cache.W, 1, 2) @ cache.W
        for t in range(jittered_mesh.n_triangles):
            B, G = reference_element(cache, t)
            want = B.T @ np.linalg.solve(G, B)
            assert np.abs(A[t] - want).max() <= 1e-10 * np.abs(want).max()

    def test_failing_element_is_named(self, jittered_mesh):
        cache, _, _ = make_cache(jittered_mesh, k=1)
        G = cache.matrices()[1][:4]
        G[2] *= -1.0
        G[3] *= -1.0
        with pytest.raises(RuntimeError, match="Gram Cholesky failed on element 2$"):
            _cholesky(G)


class TestElementMatrix:
    @pytest.mark.parametrize("t", [0, 3, 5])
    def test_first_order_system_identity(self, t):
        """With exact polynomial fields and traces, B_K u equals the moments
        of (r*q + grad psi) against phi and of div q against tau."""
        mesh = small_mesh()
        cache, trial, test = make_cache(mesh, k=2, s=2)

        def psi(r, z):
            return 0.3 * r * r - 0.2 * r * z + z * z - 0.1

        def q(r, z):
            return np.array([0.5 * r + z * z, r * z - 0.25 * z])

        u = interpolate_element_vector(cache, trial, t, psi, q)
        got = cache.matrices()[0][t] @ u

        rule = triangle_rule(2 * test.basis.order + 6)
        tv, tg_ref = test.basis.eval(rule.points), test.basis.grad(rule.points)
        _, inv_T, det = mesh.geometry
        g = np.einsum("ab,qib->qia", inv_T[t], tg_ref)
        phys = mesh.map_to_physical(t, rule.points)
        w = rule.weights * det[t]
        r, z = phys[:, 0], phys[:, 1]
        # grad psi and div q of the chosen polynomials, by hand
        gp = np.column_stack([0.6 * r - 0.2 * z, -0.2 * r + 2 * z])
        qv = np.column_stack([0.5 * r + z * z, r * z - 0.25 * z])
        divq = 0.5 + r - 0.25
        mis_r = r * qv[:, 0] + gp[:, 0]
        mis_z = r * qv[:, 1] + gp[:, 1]
        n = test.nks
        want = np.concatenate([
            tv.T @ (w * mis_r), tv.T @ (w * mis_z), tv.T @ (w * divq)])
        assert np.abs(got - want).max() < 1e-11

    def test_unknown_norm_rejected(self):
        mesh = small_mesh()
        trial = TrialSpace(mesh, 1)
        test = TestSpace(1, 2)
        with pytest.raises(ValueError, match="norm"):
            ElementCache(mesh, trial, test, norm="energy")


class TestGram:
    def brute_force_standard_gram(self, mesh, test, t):
        rule = triangle_rule(2 * test.basis.order + 4)
        tv, tg_ref = test.basis.eval(rule.points), test.basis.grad(rule.points)
        _, inv_T, det = mesh.geometry
        g = np.einsum("ab,qib->qia", inv_T[t], tg_ref)
        w = rule.weights * det[t]
        n = test.nks
        G = np.zeros((3 * n, 3 * n))
        sl = [slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)]
        # ||phi||^2 + ||div phi||^2 + ||tau||^2 + ||grad tau||^2
        M = (tv * w[:, None]).T @ tv
        G[sl[0], sl[0]] += M
        G[sl[1], sl[1]] += M
        G[sl[2], sl[2]] += M
        for a in range(2):
            Ka = (g[:, :, a] * w[:, None]).T @ g[:, :, a]
            G[sl[2], sl[2]] += Ka
        for a in range(2):
            for b in range(2):
                Kab = (g[:, :, a] * w[:, None]).T @ g[:, :, b]
                G[sl[a], sl[b]] += Kab
        return G

    def test_standard_gram_matches_brute_force(self):
        mesh = small_mesh()
        cache, _, test = make_cache(mesh, k=1, s=2)
        for t in [0, 2]:
            G = cache.matrices()[1][t]
            want = self.brute_force_standard_gram(mesh, test, t)
            scale = np.abs(want).max()
            assert np.abs(G - want).max() < 1e-12 * scale

    def test_gram_is_spd(self):
        cache, _, _ = make_cache(small_mesh(), k=1, s=2)
        for norm in (STANDARD, ADJOINT_GRAPH):
            cache2, _, _ = make_cache(small_mesh(), k=1, s=2, norm=norm)
            for G in cache2.matrices()[1]:
                assert np.linalg.eigvalsh(G).min() > 0

    def test_adjoint_graph_differs_and_couples_blocks(self):
        c_std, _, test = make_cache(small_mesh(), k=1, s=2, norm=STANDARD)
        c_ag, _, _ = make_cache(small_mesh(), k=1, s=2, norm=ADJOINT_GRAPH)
        G1, G2 = c_std.matrices()[1][0], c_ag.matrices()[1][0]
        assert np.abs(G1 - G2).max() > 1e-3
        n = test.nks
        # the graph norm couples the vector part with tau
        assert np.abs(G2[:n, 2 * n:]).max() > 1e-8
        assert np.abs(G1[:n, 2 * n:]).max() < 1e-13


def element_source(cache, t, coeffs, problem):
    """(N_K, D_K) of element t with psi given by its coefficients there and
    zero on every other element."""
    psi_q = np.zeros(cache.w.shape)
    psi_q[t] = cache.uv @ coeffs
    N, D = cache.source_moments(psi_q, problem)
    return N[t], D[t]


class TestSourceMoments:
    def test_linear_source_against_quadrature(self):
        prob = solovev_problem("iter")
        mesh = build_builtin_mesh(prob.boundary, (6, 2))
        cache, trial, test = make_cache(mesh, k=2, s=2)
        t = 4
        L_K = cache.linear_source(prob)[t]
        rule = triangle_rule(2 * test.basis.order + 6)
        tv = test.basis.eval(rule.points)
        phys = mesh.map_to_physical(t, rule.points)
        _, _, det = mesh.geometry
        w = rule.weights * det[t]
        want = tv.T @ (w * (-phys[:, 0] ** 2) / phys[:, 0])
        assert np.abs(L_K - want).max() < 1e-12

    def test_derivative_moment_consistent_with_value_moment(self):
        from gsdpg.problems import manufactured_problem
        prob = manufactured_problem()
        mesh = build_builtin_mesh(prob.boundary, (6, 2))
        cache, trial, _ = make_cache(mesh, k=2, s=2)
        rng = np.random.default_rng(5)
        c = 0.1 * rng.standard_normal(trial.nk)
        dc = rng.standard_normal(trial.nk)
        eps = 1e-6
        Np, _ = element_source(cache, 3, c + eps * dc, prob)
        Nm, _ = element_source(cache, 3, c - eps * dc, prob)
        _, D_K = element_source(cache, 3, c, prob)
        fd = (Np - Nm) / (2 * eps)
        assert np.abs(fd - D_K @ dc).max() < 1e-7

    def test_nonfinite_source_reports_element_and_point(self):
        prob = solovev_problem("iter")
        prob.f_nl = lambda r, z, p: np.where(p > 0, np.inf, 0.0)
        mesh = build_builtin_mesh(prob.boundary, (6, 2))
        cache, trial, _ = make_cache(mesh, k=1, s=2)
        psi = np.zeros(trial.nk)
        psi[0] = 1.0                      # the constant mode: psi > 0 on element 2 only
        with pytest.raises(SourceEvaluationError, match=r"F_N non-finite on element 2"):
            element_source(cache, 2, psi, prob)
