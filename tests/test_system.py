import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import gsdpg.system
from gsdpg.assembly import SourceEvaluationError
from gsdpg.basis import default_volume_degree, triangle_rule
from gsdpg.mesh import bisect_conforming, build_builtin_mesh, rectangle_curve, uniform_refine
from gsdpg.problems import get_problem
from gsdpg.solvers import solve_nonlinear
from gsdpg.system import GlobalState


@pytest.fixture(scope="module")
def lin_state():
    prob = get_problem("solovev-iter")
    mesh = build_builtin_mesh(prob.boundary, (6, 2))
    return GlobalState(mesh, prob, k=2)


@pytest.fixture(scope="module")
def nl_state():
    prob = get_problem("rect-amr")
    mesh = build_builtin_mesh(prob.boundary, (3, 3))
    return GlobalState(mesh, prob, k=1)


def random_iterate(state, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    return state.apply_boundary(scale * rng.standard_normal(state.n_total))


def global_gram(state):
    return sp.block_diag(list(state.cache.matrices()[1]), format="csc")


def residual_elements(state, U):
    """(T, 3*nks) element test-space residuals B_K u_K minus the source
    moments on the tau rows, from the unwhitened element matrices."""
    B, _ = state.cache.matrices()
    N, _ = state.sources(U)
    r = np.einsum("tij,tj->ti", B, U[state.cache.cols])
    r[:, state._tau] -= N + state.L
    return r


def reference_trace_pattern(state):
    """The sort-and-searchsorted pattern over all element Schur-block
    entries that ``GlobalState._trace_pattern`` replaced, with the coupling
    entries (free row, boundary column), their free rows and boundary
    values, which shift the right-hand side of ``reference_condensation``."""
    off = state.trial.offset_qhat
    n_t = state.n_total - off
    c_t = state.cache.cols[:, 3 * state.trial.nk:] - off
    m = c_t.shape[1]
    rows = np.repeat(c_t, m, axis=1).ravel()
    cols = np.tile(c_t, (1, m)).ravel()
    free_t = state.free[off:]
    n_f = int(free_t.sum())
    fidx = np.cumsum(free_t) - 1
    ff = free_t[rows] & free_t[cols]
    key = np.where(ff, fidx[cols] * n_f + fidx[rows], n_f * n_f)
    keys = np.sort(key[ff])
    keys = keys[np.diff(keys, prepend=-1) > 0]
    slot = np.searchsorted(keys, key).astype(np.int32)
    g = np.zeros(n_t)
    g[state.bdata.dofs - off] = state.bdata.values
    coupling = np.nonzero(free_t[rows] & ~free_t[cols])[0].astype(np.int32)
    return types.SimpleNamespace(
        slot=slot,
        indices=(keys % n_f).astype(np.int32),
        indptr=np.searchsorted(keys, np.arange(n_f + 1) * n_f).astype(np.int32),
        coupling=coupling,
        coupling_rows=fidx[rows[coupling]],
        coupling_g=g[cols[coupling]],
    )


def reference_condensation(state, N, D):
    """The per-evaluation elimination of the whole interior (q, psi) block
    that ``solve_linearized`` replaced: the free trace system (S, b_f) and
    the interior recovery x_f -> full trial vector."""
    st = state
    p = reference_trace_pattern(st)
    nk3 = 3 * st.trial.nk
    off = st.trial.offset_qhat
    W, ZD = st.cache.W, st.cache.Z @ D
    A = np.swapaxes(W, 1, 2) @ W
    b = st._element_rhs(st._whitened_source(N), ZD)
    A_i = A[:, :nk3].copy()
    A_i[:, st._c_psi] -= np.swapaxes(ZD, 1, 2) @ W[:, st._tau]
    A_ti = A[:, nk3:, :nk3]
    sol = np.linalg.solve(A_i[:, :, :nk3],
                          np.concatenate([A_i[:, :, nk3:], b[:, :nk3, None]], axis=2))
    X, y_i = sol[:, :, :-1], sol[:, :, -1]
    S_el = (A[:, nk3:, nk3:] - A_ti @ X).ravel()
    r_el = b[:, nk3:] - np.einsum("tij,tj->ti", A_ti, y_i)
    n_f = len(p.indptr) - 1
    S = sp.csc_matrix((np.bincount(p.slot, S_el)[:len(p.indices)], p.indices, p.indptr),
                      shape=(n_f, n_f))
    free_t = st.free[off:]
    rhs = np.bincount((st.cache.cols[:, nk3:] - off).ravel(), r_el.ravel(),
                      minlength=len(free_t))
    b_f = rhs[free_t] - np.bincount(p.coupling_rows, S_el[p.coupling] * p.coupling_g,
                                    minlength=n_f)

    def recover(x_f):
        U = st.initial_guess()
        U[off:][free_t] = x_f
        v = U[st.cache.cols[:, nk3:]]
        U[st.cache.cols[:, :nk3]] = y_i - np.einsum("tij,tj->ti", X, v)
        return U

    return S, b_f, recover


def deep_corner_state(generations):
    """rect-amr, 8x8, k=2, with the element nearest (1.6, 0.75) bisected
    ``generations`` times (as in test_solvers.TestDeepCornerRefinement)."""
    prob = get_problem("rect-amr")
    mesh = build_builtin_mesh(prob.boundary, (8, 8))
    for _ in range(generations):
        c = mesh.vertices[mesh.triangles].mean(axis=1)
        mesh = bisect_conforming(mesh, [np.argmin(np.hypot(c[:, 0] - 1.6, c[:, 1] - 0.75))])
    return GlobalState(mesh, prob, k=2)


class TestResidualAndEnergy:
    def test_energy_identity_against_global_solve(self, nl_state):
        """E_total^2 equals r^T G^{-1} r with the block-diagonal Gram
        assembled and solved globally (independent route)."""
        U = random_iterate(nl_state, seed=1)
        r = residual_elements(nl_state, U).ravel()
        G = global_gram(nl_state)
        want = float(r @ spla.spsolve(G, r))
        total, per_el = nl_state.energy_residual(U)
        assert total**2 == pytest.approx(want, rel=1e-11)
        assert np.sum(per_el**2) == pytest.approx(total**2, rel=1e-13)

    def test_indicators_are_nonnegative(self, nl_state):
        _, per_el = nl_state.energy_residual(random_iterate(nl_state, 2))
        assert np.all(per_el >= 0)

    def test_riesz_representative_solves_gram_system(self, nl_state):
        """The element right-hand sides from the whitened stacks equal
        B^T y - D^T y_tau with y = G_K^{-1} E_tau (N + F_L), the Riesz
        representative of the tau moments from a dense Gram solve."""
        st = nl_state
        n = st.test.nks
        B, G = st.cache.matrices()
        N, D = st.sources(random_iterate(st, seed=8))
        b = st._element_rhs(st._whitened_source(N), st.cache.Z @ D)
        E_tau = np.zeros((3 * n, n))
        E_tau[st._tau] = np.eye(n)
        for t in (0, 3):
            y = np.linalg.solve(G[t], E_tau @ (N[t] + st.L[t]))
            assert np.abs(G[t] @ y - E_tau @ (N[t] + st.L[t])).max() < 1e-9
            want = B[t].T @ y
            want[st._c_psi] -= D[t].T @ y[st._tau]
            assert np.abs(b[t] - want).max() < 1e-9 * np.abs(want).max()


class TestRetainedMemory:
    def test_solved_state_keeps_only_whitened_stacks(self):
        """After a direct solve, the ndarrays a state and its element cache
        hold come to at most 30 KB per element at k=2 (B_K and L_K kept
        beside W would make 66 KB, the products W^T Z and Z^T Z 34 KB), and
        no (T, 3n, 3n) Gram-sized, (T, ncols, ncols) normal-matrix or
        (T, ncols, n) stack is kept."""
        prob = get_problem("manufactured")
        st = GlobalState(build_builtin_mesh(prob.boundary, (8, 4)), prob, k=2)
        assert solve_nonlinear(st).converged
        T, n, m = st.mesh.n_triangles, st.test.nks, st.trial.n_local()
        held = {}
        for obj in (st, st.cache):
            for a in vars(obj).values():
                if isinstance(a, np.ndarray):
                    base = a if a.base is None else a.base
                    held[id(base)] = base
        assert not [a.shape for a in held.values()
                    if a.shape in ((T, 3 * n, 3 * n), (T, m, m), (T, m, n))]
        assert sum(a.nbytes for a in held.values()) / T <= 30e3

    def test_construction_peak_per_element(self):
        """Building a standard-norm state at k=2 peaks at most 29 KB per
        element of traced allocations (26.9 KB measured at T=384): the
        whitened stacks plus one phi-block stack, never a (T, 3n, 3n) Gram
        or factor stack beside them (a full-matrix factor peaks at 49.2 KB)."""
        prob = get_problem("manufactured")
        mesh = uniform_refine(uniform_refine(build_builtin_mesh(prob.boundary, (8, 2))))
        GlobalState(build_builtin_mesh(prob.boundary, (4, 2)), prob, k=2)  # fill the rule caches
        mesh.geometry  # cached on the mesh, not part of the state
        tracemalloc.start()
        try:
            GlobalState(mesh, prob, k=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / mesh.n_triangles <= 29e3


class TestSourceMoments:
    @pytest.mark.parametrize("name,res,k", [("rect-amr", (3, 3), 1), ("manufactured", (4, 2), 2)])
    def test_gemm_matches_three_operand_einsum(self, name, res, k):
        prob = get_problem(name)
        st = GlobalState(build_builtin_mesh(prob.boundary, res), prob, k=k)
        c = st.cache
        psi_q = st.interior_coeffs(random_iterate(st, seed=3))[1] @ c.uv.T
        N, D = c.source_moments(psi_q, prob)
        r, z = c.pts[..., 0], c.pts[..., 1]
        fn = np.broadcast_to(prob.f_nl(r, z, psi_q), r.shape)
        dfn = np.broadcast_to(prob.df_nl(r, z, psi_q), r.shape)
        want_N = np.einsum("qi,tq->ti", c.tv, c.w * fn / r)
        want_D = np.einsum("qi,tq,qj->tij", c.tv, c.w * dfn / r, c.uv)
        assert np.abs(want_D).max() > 0
        assert np.abs(N - want_N).max() <= 1e-14 * np.abs(want_N).max()
        assert np.abs(D - want_D).max() <= 1e-14 * np.abs(want_D).max()


class TestLinearSource:
    def test_nonfinite_linear_source_names_element_and_point(self):
        prob = get_problem("rect-amr")
        prob.f_lin = lambda r, z: np.where(r > 1.0, np.nan, 0.0)
        mesh = build_builtin_mesh(prob.boundary, (3, 3))
        rule = triangle_rule(default_volume_degree(1, 2))
        for t in range(mesh.n_triangles):
            pts = mesh.map_to_physical(t, rule.points)
            if np.any(pts[:, 0] > 1.0):
                r, z = pts[np.argmax(pts[:, 0] > 1.0)]
                break
        want = f"F_L non-finite on element {t} at point ({r:.6g}, {z:.6g})"
        with pytest.raises(SourceEvaluationError) as err:
            GlobalState(mesh, prob, k=1)
        assert str(err.value) == want
        assert t > 0


class TestNormalOperator:
    def test_matrix_free_oracle(self, nl_state):
        """A v computed from the sparse matrix equals the element-by-element
        application J^T G^{-1} B v."""
        st = nl_state
        U = random_iterate(st, seed=4)
        N, D = st.sources(U)
        A = st.normal_matrix(D)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(st.n_total)
        got = A @ v
        want = np.zeros(st.n_total)
        nk = st.trial.nk
        c_psi = slice(2 * nk, 3 * nk)
        tau = st._tau
        B_all, G_all = st.cache.matrices()
        for t in range(st.mesh.n_triangles):
            B = B_all[t]
            cols = st.cache.cols[t]
            y = np.linalg.solve(G_all[t], B @ v[cols])
            loc = B.T @ y
            loc[c_psi] -= D[t].T @ y[tau]
            np.add.at(want, cols, loc)
        assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_static_normal_matrix_is_spd(self, k):
        prob = get_problem("solovev-iter")
        mesh = build_builtin_mesh(prob.boundary, (6, 2))
        st = GlobalState(mesh, prob, k=k)
        A = st.normal_matrix_static()
        A_ff, _ = st.constrain(A, np.zeros(st.n_total))
        dense = A_ff.toarray()
        assert np.abs(dense - dense.T).max() < 1e-11 * np.abs(dense).max()
        w = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        assert w.min() > 0

    def test_jacobian_matches_finite_differences(self, nl_state):
        """Directional derivative of the residual equals the linearized
        operator action (B_L minus the psi-source derivative block)."""
        st = nl_state
        U = random_iterate(st, seed=6)
        rng = np.random.default_rng(7)
        V = rng.standard_normal(st.n_total)
        V[st.bdata.dofs] = 0.0
        eps = 1e-7
        rp = residual_elements(st, st.apply_boundary(U + eps * V)).ravel()
        rm = residual_elements(st, st.apply_boundary(U - eps * V)).ravel()
        fd = (rp - rm) / (2 * eps)
        _, D = st.sources(U)
        B, _ = st.cache.matrices()
        want = np.zeros_like(fd)
        n = st.test.nks
        nk = st.trial.nk
        for t in range(st.mesh.n_triangles):
            cols = st.cache.cols[t]
            jv = B[t] @ V[cols]
            jv[st._tau] -= D[t] @ V[st.trial.psi_dofs(t)]
            want[3 * n * t: 3 * n * (t + 1)] = jv
        assert np.abs(fd - want).max() < 1e-6


class TestFieldEvaluation:
    def test_index_array_stacks_element_calls(self, lin_state):
        st = lin_state
        U = random_iterate(st, seed=11)
        ref = np.array([[1 / 3, 1 / 3], [0.1, 0.2], [0.6, 0.3], [0.0, 1.0]])
        tri = np.array([4, 0, 7, 4])
        psi = st.eval_psi(U, tri, ref)
        q = st.eval_q(U, tri, ref)
        assert psi.shape == (4, 4) and q.shape == (4, 4, 2)
        for i, t in enumerate(tri):
            assert np.array_equal(psi[i], st.eval_psi(U, int(t), ref))
            assert np.array_equal(q[i], st.eval_q(U, int(t), ref))
        # per-element point sets (m, n, 2)
        refs = np.random.default_rng(5).random((4, 6, 2)) * 0.5
        psi = st.eval_psi(U, tri, refs)
        q = st.eval_q(U, tri, refs)
        assert psi.shape == (4, 6) and q.shape == (4, 6, 2)
        for i, t in enumerate(tri):
            assert np.array_equal(psi[i], st.eval_psi(U, int(t), refs[i]))
            assert np.array_equal(q[i], st.eval_q(U, int(t), refs[i]))


class TestCondensedSolve:
    def test_matches_full_sparse_solve_nonlinear(self, nl_state):
        st = nl_state
        U = random_iterate(st, seed=9, scale=0.05)
        N, D = st.sources(U)
        x1 = st.solve_linearized(N, D)
        A = st.normal_matrix(D=D)
        b = st.fixed_point_rhs(U, N, D)
        A_ff, b_f = st.constrain(A, b)
        x2 = st.expand(spla.spsolve(A_ff.tocsc(), b_f))
        assert np.abs(x1 - x2).max() < 1e-9 * max(1.0, np.abs(x2).max())

    def test_satisfies_boundary_conditions(self, lin_state):
        st = lin_state
        N, D = st.sources(st.initial_guess())
        x = st.solve_linearized(N, D)
        assert np.abs(x[st.bdata.dofs] - st.bdata.values).max() == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name,res", [("manufactured", (4, 2)), ("rect-amr", (3, 3)),
                                          ("solovev-iter", (6, 2)), ("dshape", (8, 2))])
    def test_node_pair_pattern_matches_reference(self, name, res, k):
        prob = get_problem(name)
        mesh = build_builtin_mesh(prob.boundary, res)
        rng = np.random.default_rng(k)
        for _ in range(2):
            mesh = bisect_conforming(mesh, rng.choice(mesh.n_triangles, mesh.n_triangles // 4,
                                                      replace=False))
        st = GlobalState(mesh, prob, k=k)
        got, want = st._trace_pattern(), reference_trace_pattern(st)
        assert len(want.coupling) > 0
        for f in ("slot", "indices", "indptr"):
            a, b = getattr(got, f), getattr(want, f)
            assert a.dtype == b.dtype and np.array_equal(a, b), f

    @pytest.mark.parametrize("generations", [None, 20])
    def test_matches_reference_elimination(self, nl_state, generations):
        """The q-first elimination gives the same trace system and interior
        recovery as eliminating the whole interior block per evaluation, at
        a nonzero D.  At 20 generations the trace system is so
        ill-conditioned that 1e-14 changes of the data move its solution by
        1e-7, and the interior recovery of the tiny elements cancels, so
        there the trace solution is checked against the reference system and
        the recovery in the energy norm sqrt(sum_K |W_K x_K|^2)."""
        st = nl_state if generations is None else deep_corner_state(generations)
        U = random_iterate(st, seed=9, scale=0.05)
        N, D = st.sources(U)
        assert np.abs(D).max() > 1.0
        got = st.solve_linearized(N, D)
        S, b_f, recover = reference_condensation(st, N, D)
        x_f = got[st.free][st.trial.offset_qhat:]
        assert np.abs(S @ x_f - b_f).max() <= 1e-12 * np.abs(b_f).max()

        def energy(x):
            return np.linalg.norm(np.einsum("tij,tj->ti", st.cache.W, x[st.cache.cols]))

        assert energy(recover(x_f) - got) <= 1e-12 * energy(got)
        if generations is None:
            want = recover(spla.spsolve(S, b_f))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_singular_q_block_named(self, monkeypatch):
        prob = get_problem("rect-amr")
        st = GlobalState(build_builtin_mesh(prob.boundary, (3, 3)), prob, k=1)
        N, D = st.sources(st.initial_guess())
        W = st.cache.W.copy()
        W[4, :, :2 * st.trial.nk] = 0.0         # one element's Q columns vanish
        monkeypatch.setattr(st.cache, "W", W)
        with pytest.raises(RuntimeError, match="^q block Cholesky failed on element 4$"):
            st.solve_linearized(N, D)

    def test_direct_solve_builds_static_blocks_once(self, monkeypatch):
        """A direct nonlinear solve eliminates q from blocks built once per
        state and never assembles the static normal matrix, the only place
        that forms the (T, ncols, ncols) stack W^T W."""
        calls = []
        monkeypatch.setattr(GlobalState, "normal_matrix_static",
                            lambda self: calls.append(1))
        prob = get_problem("rect-amr")
        st = GlobalState(build_builtin_mesh(prob.boundary, (3, 3)), prob, k=1)
        assert solve_nonlinear(st).converged
        blocks = (st._F, st._FP, st._H)
        assert solve_nonlinear(st).converged
        assert all(a is b for a, b in zip((st._F, st._FP, st._H), blocks))
        assert not calls and st._A0 is None


class TestLaggedTraceSolve:
    """A cache shared by successive solve_linearized calls keeps the first
    LU as the preconditioner of the later systems."""

    @staticmethod
    def count_splu(monkeypatch):
        calls = []
        splu = gsdpg.system.spla.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(gsdpg.system.spla, "splu", counting)
        return calls

    @staticmethod
    def points(st):
        U = random_iterate(st, seed=9, scale=0.05)
        return [U, st.apply_boundary(1.02 * U)]

    @classmethod
    def iterates(cls, st):
        return [st.sources(U) for U in cls.points(st)]

    @staticmethod
    def record_lagged(monkeypatch):
        """(iterations, converged) of each lagged FGMRES solve."""
        calls, solve = [], gsdpg.system.krylov_solve

        def counting(*args, **kwargs):
            x, info = solve(*args, **kwargs)
            calls.append((info["iterations"], info["converged"]))
            return x, info

        monkeypatch.setattr(gsdpg.system, "krylov_solve", counting)
        return calls

    def test_cached_solves_match_fresh_solves(self, nl_state, monkeypatch):
        """Cold, and warm-started from each iterate's traces as the map does."""
        st = nl_state
        fresh = [st.solve_linearized(N, D) for N, D in self.iterates(st)]
        splu = self.count_splu(monkeypatch)
        for warm in (False, True):
            splu.clear()
            cache = {}
            for U, want in zip(self.points(st), fresh):
                got = st.solve_linearized(*st.sources(U), cache=cache, U0=U if warm else None)
                assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()
            assert len(splu) == 1
            assert set(cache) == {"pattern", "lu"}

    def test_warm_start_saves_lagged_steps(self, monkeypatch):
        """Starting each lagged solve from the iterate's traces takes fewer
        FGMRES steps than starting from zero, with the same outer counts
        and one factorization."""
        prob = get_problem("manufactured")
        st = GlobalState(build_builtin_mesh(prob.boundary, (4, 2)), prob, k=2)
        splu = self.count_splu(monkeypatch)
        lagged = self.record_lagged(monkeypatch)
        warm = solve_nonlinear(st)
        warm_steps = [n for n, _ in lagged]
        record = gsdpg.system.krylov_solve
        monkeypatch.setattr(gsdpg.system, "krylov_solve",
                            lambda *args, x0=None, **kwargs: record(*args, **kwargs))
        lagged.clear()
        cold = solve_nonlinear(st)
        cold_steps = [n for n, _ in lagged]
        assert warm.converged and cold.converged and warm.iterations == cold.iterations
        assert len(warm_steps) == len(cold_steps) > 1
        assert sum(warm_steps) < sum(cold_steps)
        assert len(splu) == 2
        assert np.abs(warm.U - cold.U).max() < 1e-8 * np.abs(cold.U).max()

    def test_stagnating_lagged_solve_refactors_at_once(self, monkeypatch):
        """From the initial guess, the LU of the first rect-amr system does
        not precondition the second: the lagged solve gives up within two
        steps (not at the cap of 20) and that system is factored afresh."""
        prob = get_problem("rect-amr")
        st = GlobalState(build_builtin_mesh(prob.boundary, (3, 3)), prob, k=1)
        splu = self.count_splu(monkeypatch)
        lagged = self.record_lagged(monkeypatch)
        assert solve_nonlinear(st).converged
        steps, ok = lagged[0]
        assert not ok and 1 <= steps <= 2
        assert all(ok for _, ok in lagged[1:])
        assert len(splu) == 2

    def test_pattern_maps_are_32_bit(self, nl_state):
        cache = {}
        N, D = self.iterates(nl_state)[0]
        nl_state.solve_linearized(N, D, cache=cache)
        p = cache["pattern"]
        assert {a.dtype for a in (p.slot, p.indices, p.indptr)} == {np.dtype(np.int32)}

    def test_refactors_when_gmres_misses_its_cap(self, nl_state, monkeypatch):
        st = nl_state
        fresh = [st.solve_linearized(N, D) for N, D in self.iterates(st)]
        splu = self.count_splu(monkeypatch)
        monkeypatch.setattr(gsdpg.system, "krylov_solve", lambda A, b, M, params, x0, stall: (
            np.zeros_like(b), {"iterations": params.max_iters, "relres": 0.5,
                               "converged": False}))
        cache = {}
        for (N, D), want in zip(self.iterates(st), fresh):
            got = st.solve_linearized(N, D, cache=cache)
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
        assert len(splu) == 2


class TestConstraint:
    def test_expand_roundtrip(self, lin_state):
        st = lin_state
        rng = np.random.default_rng(11)
        x_f = rng.standard_normal(int(st.free.sum()))
        U = st.expand(x_f)
        assert np.array_equal(U[st.free], x_f)
        assert np.array_equal(U[st.bdata.dofs], st.bdata.values)

    def test_constrain_shifts_boundary_data(self, lin_state):
        st = lin_state
        A = st.normal_matrix_static()
        rng = np.random.default_rng(12)
        b = rng.standard_normal(st.n_total)
        A_ff, b_f = st.constrain(A, b)
        g = np.zeros(st.n_total)
        g[st.bdata.dofs] = st.bdata.values
        want = (b - A @ g)[st.free]
        assert np.abs(b_f - want).max() == 0.0
        assert A_ff.shape == (int(st.free.sum()),) * 2
