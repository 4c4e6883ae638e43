import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import gsdpg.system
from gsdpg.assembly import SourceEvaluationError
from gsdpg.krylov import KrylovParams
from gsdpg.mesh import bisect_conforming, build_builtin_mesh, rectangle_curve
from gsdpg.problems import get_problem
from gsdpg.solvers import (
    AndersonParams,
    FixedPointMap,
    anderson_solve,
    build_block_jacobi,
    cubic_line_search,
    krylov_solve,
    solve_nonlinear,
)
from gsdpg.system import GlobalState

COS_FIXED_POINT = 0.7390851332151607  # root of x = cos(x)


def small_state(problem="rect-amr", res=(3, 3), k=1):
    prob = get_problem(problem)
    mesh = build_builtin_mesh(prob.boundary, res)
    return GlobalState(mesh, prob, k=k)


class TestKrylov:
    def test_solves_random_spd_system(self):
        rng = np.random.default_rng(0)
        Q = rng.standard_normal((40, 40))
        A = Q @ Q.T + 40 * np.eye(40)
        b = rng.standard_normal(40)
        x, info = krylov_solve(A, b, params=KrylovParams(rtol=1e-12))
        assert info["converged"]
        assert np.abs(A @ x - b).max() < 1e-9

    def test_exact_preconditioner_converges_immediately(self):
        rng = np.random.default_rng(1)
        Q = rng.standard_normal((30, 30))
        A = Q @ Q.T + 30 * np.eye(30)
        b = rng.standard_normal(30)
        Ainv = np.linalg.inv(A)
        x, info = krylov_solve(A, b, M=lambda v: Ainv @ v,
                               params=KrylovParams(rtol=1e-12))
        assert info["converged"]
        assert info["iterations"] <= 2

    def test_zero_rhs(self):
        A = np.eye(5)
        x, info = krylov_solve(A, np.zeros(5))
        assert info["converged"]
        assert np.all(x == 0)

    def test_restart_still_converges(self):
        rng = np.random.default_rng(2)
        Q = rng.standard_normal((50, 50))
        A = Q @ Q.T + 60 * np.eye(50)
        b = rng.standard_normal(50)
        x, info = krylov_solve(A, b, params=KrylovParams(restart=5, rtol=1e-10,
                                                         max_iters=3000))
        assert info["converged"]
        assert np.abs(A @ x - b).max() < 1e-6

    @staticmethod
    def spd_system(n=30, seed=3):
        rng = np.random.default_rng(seed)
        Q = rng.standard_normal((n, n))
        return Q @ Q.T + n * np.eye(n), rng.standard_normal(n)

    def test_exact_start_returns_at_once(self):
        A, b = self.spd_system()
        x_exact = np.linalg.solve(A, b)
        x, info = krylov_solve(A, b, params=KrylovParams(rtol=1e-10), x0=x_exact)
        assert info["converged"] and info["iterations"] == 0
        assert np.array_equal(x, x_exact)

    def test_start_tolerance_is_relative_to_b(self):
        """||b - A x|| <= rtol ||b|| stops the solve, however small the
        start's residual: a start inside the tolerance takes no step, and a
        start just outside it stops at rtol ||b||, not rtol ||r0||."""
        A, b = self.spd_system()
        x_exact = np.linalg.solve(A, b)
        d = np.linalg.solve(A, np.ones_like(b))
        rtol, bnorm = 1e-6, np.linalg.norm(b)
        for scale, steps in ((0.5, 0), (2.0, None)):
            x0 = x_exact + scale * rtol * bnorm / np.linalg.norm(A @ d) * d
            x, info = krylov_solve(A, b, params=KrylovParams(rtol=rtol), x0=x0)
            res = np.linalg.norm(b - A @ x)
            assert info["converged"] and res <= rtol * bnorm
            assert info["relres"] == pytest.approx(res / bnorm)
            if steps is not None:
                assert info["iterations"] == steps
            else:
                assert 1 <= info["iterations"] <= 3
                assert res > 1e-3 * rtol * bnorm

    def test_start_not_modified(self):
        A, b = self.spd_system()
        x0 = np.ones_like(b)
        x, info = krylov_solve(A, b, params=KrylovParams(rtol=1e-12), x0=x0)
        assert info["converged"] and np.abs(A @ x - b).max() < 1e-9
        assert np.array_equal(x0, np.ones_like(b))

    def test_stall_ends_a_stagnating_solve(self):
        """GMRES on a cyclic shift makes no progress for n - 1 steps; with
        ``stall`` it gives up after the first, unconverged."""
        n = 12
        A, b = np.roll(np.eye(n), 1, axis=0), np.eye(n)[0]
        x, info = krylov_solve(A, b, params=KrylovParams(rtol=1e-12))
        assert info["converged"] and info["iterations"] == n
        x, info = krylov_solve(A, b, params=KrylovParams(rtol=1e-12), stall=0.5)
        assert not info["converged"] and info["iterations"] == 1

    @pytest.mark.parametrize("field", ["restart", "max_iters"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_budget_rejected(self, field, value):
        """A restart cycle with no step would never return."""
        params = dataclasses.replace(KrylovParams(), **{field: value})
        with pytest.raises(ValueError, match=f"{field}.*>= 1, got {value}$"):
            krylov_solve(np.eye(3), np.ones(3), params=params)


def reference_gmres(A, b, M, restart, rtol, max_iters):
    """Textbook restarted right-preconditioned GMRES: modified Gram-Schmidt
    and Givens rotations one scalar at a time (Saad, *Iterative Methods for
    Sparse Linear Systems*, 2nd ed., §6.5 and §9.4)."""
    n = len(b)
    bnorm = np.linalg.norm(b)
    tol = rtol * bnorm
    x = np.zeros(n)
    total = 0
    m = restart
    while total < max_iters:
        r = b - A @ x
        beta = np.linalg.norm(r)
        if beta <= tol:
            break
        V = np.zeros((m + 1, n))
        Z = np.zeros((m, n))
        H = np.zeros((m + 1, m))
        V[0] = r / beta
        g = np.zeros(m + 1)
        g[0] = beta
        cs = np.zeros(m)
        sn = np.zeros(m)
        j = 0
        while j < m and total < max_iters:
            Z[j] = M(V[j])
            w = A @ Z[j]
            for i in range(j + 1):
                H[i, j] = w @ V[i]
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            V[j + 1] = w / H[j + 1, j]
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            d = np.hypot(H[j, j], H[j + 1, j])
            cs[j], sn[j] = H[j, j] / d, H[j + 1, j] / d
            H[j, j] = d
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total += 1
            j += 1
            if abs(g[j]) <= tol:
                break
        y = np.linalg.solve(np.triu(H[:j, :j]), g[:j])
        x = x + y @ Z[:j]
    return x, total


class TestKrylovMatchesReference:
    """The array GMRES (CGS2, rotation-matrix QR) against the scalar loop."""

    @staticmethod
    def system(n=80, seed=7):
        rng = np.random.default_rng(seed)
        A = (np.diag(np.linspace(1.0, 20.0, n))
             + rng.standard_normal((n, n)) * 4.0 / np.sqrt(n))
        # nonsymmetric preconditioner: forward substitution with a perturbed
        # lower triangle of A
        L = np.tril(A) + np.tril(rng.standard_normal((n, n)) * 2.0 / np.sqrt(n), -1)
        M = lambda v: np.linalg.solve(L, v)
        return A, rng.standard_normal(n), M

    @pytest.mark.parametrize("restart", [5, 200])
    def test_iterations_and_solution_match(self, restart):
        A, b, M = self.system()
        params = KrylovParams(restart=restart, rtol=1e-10, max_iters=2000)
        x, info = krylov_solve(A, b, M=M, params=params)
        x_ref, n_ref = reference_gmres(A, b, M, restart, params.rtol, params.max_iters)
        assert info["converged"]
        assert n_ref > 10                   # several cycles at restart=5
        assert info["iterations"] == n_ref
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize("restart", [1, 10])
    def test_eigenvector_rhs_breaks_down_after_one_step(self, restart):
        rng = np.random.default_rng(3)
        n = 30
        A = np.triu(rng.standard_normal((n, n))) + 5.0 * np.eye(n)
        b = np.zeros(n)
        b[0] = 2.0                      # A e_0 = A[0, 0] e_0 exactly
        with np.errstate(all="raise"):  # no division by the zero subdiagonal
            x, info = krylov_solve(A, b, params=KrylovParams(restart=restart,
                                                             rtol=1e-12))
        assert info["converged"]
        assert info["iterations"] == 1
        assert np.all(np.isfinite(x))
        assert np.abs(A @ x - b).max() < 1e-14


def jacobi_blocks(st):
    """(free-index slice, block) for the four diagonal blocks of the
    constrained static normal matrix, in (Q, Psi, Qhat_n, Psihat) order."""
    A0 = st.normal_matrix_static()
    idx = np.flatnonzero(st.free)
    tr = st.trial
    ends = np.searchsorted(idx, [0, tr.offset_psi, tr.offset_qhat, tr.offset_psihat, tr.n_total])
    slices = [slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]
    return [(sl, A0[idx[sl]][:, idx[sl]]) for sl in slices]


class TestBlockJacobi:
    def test_blocks_are_spd_and_apply_matches(self):
        st = small_state()
        P = build_block_jacobi(st)
        blocks = jacobi_blocks(st)
        assert all(blk.shape[0] > 0 for _, blk in blocks)
        for _, blk in blocks:
            dense = blk.toarray()
            w = np.linalg.eigvalsh(0.5 * (dense + dense.T))
            assert w.min() > 0
        rng = np.random.default_rng(4)
        v = rng.standard_normal(int(st.free.sum()))
        out = P(v)
        for sl, blk in blocks:
            assert np.abs(blk @ out[sl] - v[sl]).max() < 1e-8

    def test_batched_apply_matches_sparse_block_solves(self):
        st = small_state("rect-amr", (3, 3), k=2)
        assert not st.free.all()            # boundary DOFs are eliminated
        P = build_block_jacobi(st)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(int(st.free.sum()))
        out = P(v)
        for sl, blk in jacobi_blocks(st):
            ref = spla.spsolve(blk.tocsc(), v[sl])
            assert np.linalg.norm(out[sl] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_constrained_interior_dof_rejected(self):
        st = small_state()
        st.free = st.free.copy()
        st.free[st.trial.offset_psi] = False
        with pytest.raises(ValueError, match="interior DOF"):
            build_block_jacobi(st)

    def test_singular_interior_block_named(self, monkeypatch):
        st = small_state()
        st.normal_matrix_static()
        W = st.cache.W.copy()
        W[4, :, :2 * st.trial.nk] = 0.0         # one element's Q columns vanish
        monkeypatch.setattr(st.cache, "W", W)
        with pytest.raises(RuntimeError, match="factorization of block P11 failed"):
            build_block_jacobi(st)

    def test_asymmetric_trace_block_named(self):
        st = small_state()
        A0 = st.normal_matrix_static().tolil()
        i, j = st.trial.offset_psihat + np.flatnonzero(st.free[st.trial.offset_psihat:])[:2]
        A0[i, j] += 1.0                         # inside the free Psihat block
        st._A0 = A0.tocsr()
        with pytest.raises(RuntimeError, match="preconditioner block 4 is not symmetric"):
            build_block_jacobi(st)

    def test_preconditioning_reduces_gmres_iterations(self):
        st = small_state("solovev-iter", (6, 2), k=1)
        A = st.normal_matrix_static()
        A_ff, _ = st.constrain(A, np.zeros(st.n_total))
        rng = np.random.default_rng(5)
        b = rng.standard_normal(A_ff.shape[0])
        params = KrylovParams(rtol=1e-8, max_iters=4000, restart=60)
        _, plain = krylov_solve(A_ff, b, params=params)
        P = build_block_jacobi(st)
        _, prec = krylov_solve(A_ff, b, M=P, params=params)
        assert prec["converged"]
        assert prec["iterations"] < plain["iterations"]


class TestLineSearch:
    def test_accepts_full_step_on_decrease(self):
        lam, m = cubic_line_search(lambda l: 1.0 - 0.9 * l)
        assert lam == 1.0

    def test_quadratic_backtrack_value(self):
        # merit(0)=1, merit(1)=3; the quadratic model with modeled slope
        # -2*merit(0) has its minimum at 2*1/(2*(3-1+2)) = 0.25, inside the
        # [0.1, 0.5] safeguard, and 0.25 satisfies sufficient decrease here
        def merit(lam):
            if lam == 0.0:
                return 1.0
            if lam == 1.0:
                return 3.0
            return 0.5
        lam, m = cubic_line_search(merit)
        assert lam == pytest.approx(0.25, rel=1e-14)

    def test_safeguard_clamps_tiny_prediction(self):
        # merit(1) enormous: unclamped quadratic step would be < 0.1
        def merit(lam):
            if lam == 0.0:
                return 1.0
            if lam == 1.0:
                return 1e6
            return 0.0
        lam, _ = cubic_line_search(merit)
        assert lam == pytest.approx(0.1, rel=1e-14)

    def test_gives_up_at_lambda_min(self):
        lam, _ = cubic_line_search(lambda l: 1.0 + l)
        assert lam == pytest.approx(1e-4)


class TestAndersonScalarMap:
    def test_plain_picard_matches_hand_iteration(self):
        """m=0, unit relaxation, no line search is exactly x_{k+1}=cos(x_k)."""
        params = AndersonParams(m=0, rtol=1e-6, atol=1e-12, max_iters=50,
                                line_search=False)
        fp = lambda x: np.cos(x)
        res = anderson_solve(fp, np.array([1.0]), params)
        x = np.array([1.0])
        hand = []
        for _ in range(res.iterations):
            x = np.cos(x)
            hand.append(float(x[0]))
        assert res.converged
        assert float(res.U[0]) == hand[-1]  # bit-for-bit identical

    def test_acceleration_beats_plain_picard(self):
        fp = lambda x: np.cos(x)
        base = AndersonParams(m=0, rtol=1e-10, atol=1e-14, max_iters=200,
                              line_search=False)
        acc = AndersonParams(m=3, rtol=1e-10, atol=1e-14, max_iters=200,
                             line_search=False)
        r0 = anderson_solve(fp, np.array([1.0]), base)
        r1 = anderson_solve(fp, np.array([1.0]), acc)
        assert r0.converged and r1.converged
        assert r1.iterations < r0.iterations
        assert float(r1.U[0]) == pytest.approx(COS_FIXED_POINT, abs=1e-9)

    def test_flag_at_iteration_budget_is_bool(self):
        # at max_iters the flag is a comparison of numpy norms
        params = AndersonParams(m=0, rtol=1e-6, max_iters=100, line_search=False)
        needed = anderson_solve(np.cos, np.array([1.0]), params).iterations
        for budget, converged in ((needed - 1, False), (needed, True)):
            res = anderson_solve(np.cos, np.array([1.0]),
                                 dataclasses.replace(params, max_iters=budget))
            assert res.iterations == budget
            assert res.converged is converged
            json.dumps(dataclasses.asdict(dataclasses.replace(res, U=None)))

    def test_history_tracks_residual_norms(self):
        params = AndersonParams(m=2, rtol=1e-8, max_iters=100, line_search=False)
        res = anderson_solve(lambda x: np.cos(x), np.array([0.3]), params)
        assert len(res.history) == res.iterations
        assert res.history[-1] < res.history[0]

    @pytest.mark.parametrize("line_search", [False, True])
    @pytest.mark.parametrize("bad_eval", [0, 1, 4])
    def test_non_finite_residual_stops(self, bad_eval, line_search):
        """The map returns NaN from evaluation ``bad_eval`` on."""
        calls = []

        def fp(x):
            calls.append(1)
            return np.full_like(x, np.nan) if len(calls) > bad_eval else np.cos(x)

        params = AndersonParams(m=2, rtol=1e-14, atol=0.0, max_iters=50,
                                line_search=line_search)
        res = anderson_solve(fp, np.array([1.0, 0.5]), params)
        assert not res.converged
        assert res.message == f"non-finite residual at iteration {res.iterations}"
        assert np.all(np.isfinite(res.U))
        assert np.all(np.isfinite(res.history[:-1]))
        if not line_search:             # one evaluation per iteration
            assert res.iterations == bad_eval
        assert len(calls) < 20

    def test_negative_depth_rejected(self):
        calls = []
        with pytest.raises(ValueError, match="m must be >= 0"):
            anderson_solve(lambda x: calls.append(1) or np.cos(x), np.array([1.0]),
                           AndersonParams(m=-1))
        assert not calls

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_no_iteration_budget_rejected(self, max_iters):
        calls = []
        with pytest.raises(ValueError, match=f"max_iters must be >= 1, got {max_iters}"):
            anderson_solve(lambda x: calls.append(1) or np.cos(x), np.array([1.0]),
                           AndersonParams(max_iters=max_iters))
        assert not calls

    def test_stagnation_stop(self):
        # constant map: second iterate equals the first, stagnation triggers
        params = AndersonParams(m=2, rtol=1e-30, atol=0.0, stol=1e-12,
                                max_iters=50, line_search=False)
        res = anderson_solve(lambda x: np.array([2.0]), np.array([0.0]), params)
        assert res.converged
        assert res.iterations <= 3


class TestFixedPointOnProblems:
    def test_linear_problem_converges_in_one_iteration(self):
        st = small_state("solovev-iter", (6, 2), k=2)
        res = solve_nonlinear(st)
        assert res.converged
        assert res.iterations == 1

    def test_nonlinear_problem_converges(self):
        st = small_state("rect-amr", (4, 4), k=1)
        res = solve_nonlinear(st, AndersonParams(rtol=1e-8))
        assert res.converged
        total, _ = st.energy_residual(res.U)
        assert np.isfinite(total)

    def test_gmres_inner_matches_direct(self):
        st = small_state("rect-amr", (3, 3), k=1)
        r_direct = solve_nonlinear(st, AndersonParams(rtol=1e-10))
        st2 = small_state("rect-amr", (3, 3), k=1)
        r_gmres = solve_nonlinear(st2, AndersonParams(rtol=1e-10), inner="gmres")
        assert r_gmres.converged
        psi_d = r_direct.U[st.trial.offset_psi:st.trial.offset_qhat]
        psi_g = r_gmres.U[st.trial.offset_psi:st.trial.offset_qhat]
        assert np.abs(psi_d - psi_g).max() < 1e-6

    def test_anderson_no_slower_than_picard(self):
        st = small_state("rect-amr", (4, 4), k=1)
        picard = solve_nonlinear(st, AndersonParams(m=0, rtol=1e-8))
        anderson = solve_nonlinear(st, AndersonParams(m=5, rtol=1e-8))
        assert picard.converged and anderson.converged
        assert anderson.iterations <= picard.iterations

    def test_inner_solver_name_validated(self):
        st = small_state()
        with pytest.raises(ValueError, match="inner solver"):
            FixedPointMap(st, inner="amg")


class TestTraceCacheLifetime:
    """The direct map factors the trace system once per nonlinear solve and
    holds the factor only while the solve runs."""

    @staticmethod
    def record(monkeypatch):
        """Maps created, splu calls and solve_linearized calls."""
        seen = {"maps": [], "splu": 0, "solves": 0}
        init, splu = FixedPointMap.__init__, gsdpg.system.spla.splu
        solve = GlobalState.solve_linearized

        def map_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            seen["maps"].append(self)

        def counting_splu(*args, **kwargs):
            seen["splu"] += 1
            return splu(*args, **kwargs)

        def counting_solve(self, *args, **kwargs):
            seen["solves"] += 1
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(FixedPointMap, "__init__", map_init)
        monkeypatch.setattr(gsdpg.system.spla, "splu", counting_splu)
        monkeypatch.setattr(GlobalState, "solve_linearized", counting_solve)
        return seen

    def test_one_factorization_per_solve(self, monkeypatch):
        st = small_state("manufactured", (4, 2), k=2)
        seen = self.record(monkeypatch)
        res = solve_nonlinear(st)
        assert res.converged and res.iterations > 1
        assert seen["splu"] == 1
        assert seen["maps"][0].trace_cache == {}
        # one-shot path: every evaluation factors afresh
        solve = GlobalState.solve_linearized
        monkeypatch.setattr(GlobalState, "solve_linearized",
                            lambda self, N, D, cache=None, U0=None: solve(self, N, D))
        one_shot = solve_nonlinear(st)
        evals = len(seen["maps"][0].inner_iterations)
        assert one_shot.iterations == res.iterations
        assert len(seen["maps"][1].inner_iterations) == evals
        assert seen["splu"] == 1 + evals
        assert np.abs(res.U - one_shot.U).max() < 1e-8 * np.abs(one_shot.U).max()

    def test_cache_released_when_solve_raises(self, monkeypatch):
        calls, base = [], get_problem("manufactured")

        def f_nl(r, z, psi):
            calls.append(1)
            return np.nan * psi if len(calls) > 3 else base.f_nl(r, z, psi)

        prob = dataclasses.replace(base, f_nl=f_nl)
        st = GlobalState(build_builtin_mesh(prob.boundary, (4, 2)), prob, k=2)
        seen = self.record(monkeypatch)
        with pytest.raises(SourceEvaluationError, match="F_N non-finite"):
            solve_nonlinear(st)
        assert seen["splu"] == 1 and seen["solves"] > 1
        assert seen["maps"][0].trace_cache == {}


class TestDeepCornerRefinement:
    """rect-amr, 8x8, k=2, with the element nearest (1.6, 0.75) bisected
    again and again: the Gram matrices of the tiny elements grow
    ill-conditioned like 1/area.  Each depth ends in a correct answer or a
    clear error."""

    @staticmethod
    def refined(generations):
        prob = get_problem("rect-amr")
        mesh = build_builtin_mesh(prob.boundary, (8, 8))
        for _ in range(generations):
            c = mesh.vertices[mesh.triangles].mean(axis=1)
            mesh = bisect_conforming(mesh, [np.argmin(np.hypot(c[:, 0] - 1.6, c[:, 1] - 0.75))])
        return prob, mesh

    def test_thirty_generations_converge(self):
        prob, mesh = self.refined(30)
        assert mesh.n_triangles == 187
        st = GlobalState(mesh, prob, k=2)
        res = solve_nonlinear(st)
        assert res.converged and res.iterations == 5
        assert st.energy_residual(res.U)[0] == pytest.approx(8.852253e-5, rel=1e-6)

    def test_forty_generations_name_the_failing_element(self):
        prob, mesh = self.refined(40)
        assert mesh.n_triangles == 207
        with pytest.raises(RuntimeError, match=r"^Gram Cholesky failed on element \d+$") as err:
            GlobalState(mesh, prob, k=2)
        # the named element is one of the deepest, a billionth of the largest
        det = np.abs(mesh.geometry[2])
        assert det[int(str(err.value).split()[-1])] < 1e-9 * det.max()
