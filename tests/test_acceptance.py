"""End-to-end acceptance suite for the equilibrium solver.

Each test pins one advertised behavior of the package as a whole:
convergence orders of the discretization, single-iteration behavior on
linear problems, minimal-residual stationarity, Jacobian and estimator
consistency, adaptive-refinement efficiency, and solver comparisons.
The heavier convergence studies are shared through module-scoped
fixtures so each mesh hierarchy is solved only once.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gsdpg.amr import (
    AmrParams,
    MarkingParams,
    amr_loop,
    convergence_study,
    estimate,
    mark,
)
from gsdpg.assembly import ADJOINT_GRAPH, STANDARD
from gsdpg.mesh import build_builtin_mesh, uniform_refine
from gsdpg.problems import get_problem
from gsdpg.solvers import (
    AndersonParams,
    build_block_jacobi,
    krylov_solve,
    solve_nonlinear,
)
from gsdpg.system import GlobalState


# --------------------------------------------------------------------------
# helpers


def run_convergence(problem_name, resolution, k, levels, norm=STANDARD):
    """The library's uniform-refinement study as columns, each order column
    from the second level on, and its wall time; every level must converge."""
    prob = get_problem(problem_name)
    mesh = build_builtin_mesh(prob.boundary, resolution)
    t0 = time.monotonic()
    rows = list(convergence_study(prob, mesh, k, levels, norm=norm))
    elapsed = time.monotonic() - t0
    assert rows[-1]["converged"], f"{problem_name} k={k} level {rows[-1]['level']}"
    out = {key: [row[key] for row in rows] for key in rows[0]}
    out.update({key: col[1:] for key, col in out.items() if key.startswith("order_")})
    out["elapsed"] = elapsed
    return out


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


def free_dofs(state):
    return np.setdiff1d(np.arange(state.n_total), state.bdata.dofs)


def uniform_energy_series(problem_name, resolution, k, levels):
    """(n_elements, E_total) on a uniformly refined hierarchy."""
    study = run_convergence(problem_name, resolution, k, levels)
    return list(zip(study["n_elements"], study["energy_residual"]))


def interp_loglog(series, n):
    """Piecewise log-log interpolation of E(n) through a (n, E) series,
    extrapolating with the last segment's slope beyond the range."""
    ns = np.log([p[0] for p in series])
    Es = np.log([p[1] for p in series])
    slope_lo = (Es[1] - Es[0]) / (ns[1] - ns[0])
    slope_hi = (Es[-1] - Es[-2]) / (ns[-1] - ns[-2])
    x = np.log(n)
    if x <= ns[0]:
        return float(np.exp(Es[0] + slope_lo * (x - ns[0])))
    if x >= ns[-1]:
        return float(np.exp(Es[-1] + slope_hi * (x - ns[-1])))
    return float(np.exp(np.interp(x, ns, Es)))


NONLINEAR_CASES = [
    ("solovev-iter", (8, 2), 2),
    ("manufactured", (6, 2), 1),
    ("dshape", (6, 2), 1),
    ("rect-amr", (4, 4), 1),
]


# --------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def iter_study():
    return run_convergence("solovev-iter", (12, 3), k=2, levels=4)


@pytest.fixture(scope="module")
def nstx_study():
    return run_convergence("solovev-nstx", (12, 3), k=2, levels=4)


@pytest.fixture(scope="module")
def manufactured_k1():
    return run_convergence("manufactured", (8, 2), k=1, levels=4)


@pytest.fixture(scope="module")
def manufactured_k2():
    return run_convergence("manufactured", (8, 2), k=2, levels=4)


@pytest.fixture(scope="module")
def manufactured_k3():
    return run_convergence("manufactured", (8, 2), k=3, levels=4)


# --------------------------------------------------------------------------
# 1. ITER-shaped linear equilibrium: cubic convergence at k=2


class TestIterConvergence:
    def test_orders_in_band(self, iter_study):
        for o in iter_study["order_psi"] + iter_study["order_q"]:
            assert 2.7 <= o <= 3.1

    def test_finest_errors_within_band(self, iter_study):
        assert iter_study["err_psi"][-1] < 10 * 2.877e-07
        assert iter_study["err_q"][-1] < 10 * 6.742e-07

    def test_runtime_budget(self, iter_study):
        assert iter_study["elapsed"] < 300.0


# --------------------------------------------------------------------------
# 2. NSTX-shaped linear equilibrium


class TestNstxConvergence:
    def test_orders_in_band(self, nstx_study):
        for o in nstx_study["order_psi"] + nstx_study["order_q"]:
            assert 2.6 <= o <= 3.1


# --------------------------------------------------------------------------
# 3. Nonlinear manufactured solution: order k+1 across degrees


class TestManufacturedConvergence:
    def test_k1_orders_near_two(self, manufactured_k1):
        # coarse levels are preasymptotic; judge the finest observed order
        for o in (manufactured_k1["order_psi"][-1:]
                  + manufactured_k1["order_q"][-1:]):
            assert 1.8 <= o <= 2.2

    def test_k2_flux_gradient_order(self, manufactured_k2):
        assert manufactured_k2["order_q"][-1] >= 2.7

    def test_k2_energy_residual_order(self, manufactured_k2):
        # the built-in estimator falls at the same order k+1 as the errors
        assert 2.8 <= manufactured_k2["order_energy"][-1] <= 3.2

    def test_k3_flux_gradient_orders(self, manufactured_k3):
        for o in manufactured_k3["order_q"]:
            assert 3.5 <= o <= 4.2

    def test_k3_flux_errors_small(self, manufactured_k3):
        assert manufactured_k3["err_psi"][-1] < 1e-6

    def test_adjoint_graph_norm_end_to_end(self):
        """The adjoint-graph test norm: both inner solvers converge to the
        same psi, and k=1 keeps the standard norm's order band."""
        prob = get_problem("manufactured")
        mesh = build_builtin_mesh(prob.boundary, (8, 2))
        psi = []
        for inner in ("direct", "gmres"):
            st = GlobalState(mesh, prob, k=1, norm=ADJOINT_GRAPH)
            res = solve_nonlinear(st, inner=inner)
            assert res.converged, f"{inner}: {res.message}"
            psi.append(st.interior_coeffs(res.U)[1])
        assert np.abs(psi[1] - psi[0]).max() <= 1e-6 * np.abs(psi[0]).max()
        study = run_convergence("manufactured", (8, 2), k=1, levels=3, norm=ADJOINT_GRAPH)
        for o in study["order_psi"][-1:] + study["order_q"][-1:]:
            assert 1.8 <= o <= 2.2


# --------------------------------------------------------------------------
# 4. Linear problem: the fixed-point map is constant, one outer iteration


def test_linear_problem_converges_in_one_iteration():
    prob = get_problem("solovev-iter")
    st = GlobalState(build_builtin_mesh(prob.boundary, (8, 2)), prob, k=2)
    res = solve_nonlinear(st)
    assert res.converged
    assert res.iterations == 1


# --------------------------------------------------------------------------
# 5. Minimal-residual stationarity at every converged solve


@pytest.mark.parametrize("name,res,k", NONLINEAR_CASES,
                         ids=[c[0] for c in NONLINEAR_CASES])
def test_converged_solve_is_stationary(name, res, k):
    """The converged iterate is a stationary point of the squared energy
    residual: no small coefficient perturbation may reduce it by more than
    roundoff (the first-order term vanishes, the curvature is positive)."""
    prob = get_problem(name)
    st = GlobalState(build_builtin_mesh(prob.boundary, res), prob, k)
    result = solve_nonlinear(st)
    assert result.converged
    U = result.U
    E0, _ = st.energy_residual(U)
    free = free_dofs(st)
    rng = np.random.default_rng(11)
    scale = 1e-6 * (1.0 + np.linalg.norm(U))
    for _ in range(100):
        d = rng.standard_normal(len(free))
        V = U.copy()
        V[free] += scale * d / np.linalg.norm(d)
        EV, _ = st.energy_residual(V)
        assert EV**2 >= E0**2 * (1.0 - 1e-12)


# --------------------------------------------------------------------------
# 6. Source-derivative blocks and residual Jacobian vs. finite differences


@pytest.mark.parametrize("name,res,k", NONLINEAR_CASES,
                         ids=[c[0] for c in NONLINEAR_CASES])
def test_source_derivative_blocks_match_fd(name, res, k):
    prob = get_problem(name)
    st = GlobalState(build_builtin_mesh(prob.boundary, res), prob, k)
    U = random_iterate(st, seed=3)
    _, D = st.sources(U)
    nk = st.trial.nk
    h = 1e-6
    scale = max(1.0, float(np.abs(np.asarray(D)).max()))
    for j in range(nk):
        Up, Um = U.copy(), U.copy()
        for t in range(st.mesh.n_triangles):
            Up[st.trial.psi_dofs(t)[j]] += h
            Um[st.trial.psi_dofs(t)[j]] -= h
        Np, _ = st.sources(Up)
        Nm, _ = st.sources(Um)
        fd = (Np - Nm) / (2 * h)
        want = np.stack([D[t][:, j] for t in range(st.mesh.n_triangles)])
        assert np.abs(fd - want).max() <= 1e-6 * scale


@pytest.mark.parametrize("name,res,k", NONLINEAR_CASES,
                         ids=[c[0] for c in NONLINEAR_CASES])
def test_residual_jacobian_matches_fd(name, res, k):
    prob = get_problem(name)
    st = GlobalState(build_builtin_mesh(prob.boundary, res), prob, k)
    U = random_iterate(st, seed=4)
    rng = np.random.default_rng(5)
    V = rng.standard_normal(st.n_total)
    V[st.bdata.dofs] = 0.0
    eps = 1e-7
    rp = residual_elements(st, st.apply_boundary(U + eps * V)).ravel()
    rm = residual_elements(st, st.apply_boundary(U - eps * V)).ravel()
    fd = (rp - rm) / (2 * eps)
    _, D = st.sources(U)
    B, _ = st.cache.matrices()
    n = st.test.nks
    want = np.zeros_like(fd)
    for t in range(st.mesh.n_triangles):
        jv = B[t] @ V[st.cache.cols[t]]
        jv[st._tau] -= D[t] @ V[st.trial.psi_dofs(t)]
        want[3 * n * t: 3 * n * (t + 1)] = jv
    denom = max(1.0, float(np.abs(want).max()))
    assert np.abs(fd - want).max() <= 1e-6 * denom


# --------------------------------------------------------------------------
# 7. The error estimator is exactly the energy norm of the residual


def test_estimator_identity_and_per_element_consistency():
    prob = get_problem("rect-amr")
    st = GlobalState(build_builtin_mesh(prob.boundary, (4, 4)), prob, k=2)
    U = random_iterate(st, seed=9)
    total, ind = st.energy_residual(U)
    r = residual_elements(st, U).ravel()
    G = global_gram(st)
    want = float(r @ spla.spsolve(G, r))
    assert abs(total**2 - want) <= 1e-12 * want
    # per-element: E_K^2 = r_K^T G_K^{-1} r_K through an independent
    # dense solve of the element Gram
    n = st.test.nks
    _, G_el = st.cache.matrices()
    for t in range(st.mesh.n_triangles):
        r_K = r[3 * n * t: 3 * n * (t + 1)]
        e2 = float(r_K @ np.linalg.solve(G_el[t], r_K))
        assert abs(ind[t]**2 - e2) <= 1e-12 * max(e2, 1e-30)
    assert abs(total**2 - np.sum(ind**2)) <= 1e-12 * total**2


# --------------------------------------------------------------------------
# 8. The linear-problem normal matrix is symmetric positive definite


@pytest.mark.parametrize("k", [1, 2, 3])
def test_normal_matrix_spd(k):
    prob = get_problem("solovev-iter")
    st = GlobalState(build_builtin_mesh(prob.boundary, (12, 3)), prob, k=k)
    A = st.normal_matrix_static()
    asym = abs(A - A.T).max()
    assert asym <= 1e-12 * abs(A).max()
    A_ff, _ = st.constrain(A.tocsr(), np.zeros(st.n_total))
    np.linalg.cholesky(A_ff.toarray())  # raises if not positive definite


# --------------------------------------------------------------------------
# 9. Adaptive refinement on the rectangle: efficiency and symmetry


@pytest.fixture(scope="module")
def rect_amr_run():
    prob = get_problem("rect-amr")
    marking = MarkingParams(theta_max=0.025, theta_total=0.025, atol=1e-8)
    mesh = build_builtin_mesh(prob.boundary, (8, 8))
    state, U, report = amr_loop(
        prob, mesh, k=2,
        params=AmrParams(marking=marking, max_iters=6, max_elements=2500),
        anderson=AndersonParams())
    return state, U, report


@pytest.fixture(scope="module")
def rect_uniform_series():
    return uniform_energy_series("rect-amr", (8, 8), k=2, levels=3)


@pytest.fixture(scope="module")
def rect_marks():
    prob = get_problem("rect-amr")
    mesh = build_builtin_mesh(prob.boundary, (8, 8))
    st = GlobalState(mesh, prob, k=2)
    res = solve_nonlinear(st)
    total, ind = estimate(st, res.U)
    marked = mark(ind, total, MarkingParams(theta_max=0.025,
                                            theta_total=0.025, atol=1e-8))
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    return cent[marked], ind, cent


class TestRectangleAmr:
    def test_energy_residual_strictly_decreases(self, rect_amr_run):
        _, _, report = rect_amr_run
        E = [s.energy_residual for s in report.steps]
        assert len(E) >= 4
        assert all(E[i + 1] < E[i] for i in range(len(E) - 1))

    def test_beats_uniform_refinement_at_matched_counts(
            self, rect_amr_run, rect_uniform_series):
        _, _, report = rect_amr_run
        for step in report.steps[2:]:
            E_uni = interp_loglog(rect_uniform_series, step.n_elements)
            assert step.energy_residual <= E_uni

    def test_marks_concentrate_near_right_corners(self, rect_marks):
        mc, ind, cent = rect_marks
        r_mid = 0.5 * (0.1 + 1.6)
        assert np.mean(mc[:, 0] > r_mid) > 0.75
        # the largest indicator sits in a corner element on the right
        top = cent[int(np.argmax(ind))]
        assert top[0] > 1.3 and abs(top[1]) > 0.5

    def test_marked_set_is_z_symmetric(self, rect_marks):
        mc, _, _ = rect_marks
        key = {(round(c[0], 10), round(c[1], 10)) for c in mc}
        assert {(a, -b) for a, b in key} == key


# --------------------------------------------------------------------------
# 10. Adaptive refinement on the D-shaped domain beats uniform refinement


def test_dshape_amr_beats_uniform():
    marking = MarkingParams(theta_max=0.025, theta_total=0.025, atol=1e-6)
    prob = get_problem("dshape")
    mesh = build_builtin_mesh(prob.boundary, (12, 3))
    _, _, report = amr_loop(
        prob, mesh, k=1,
        params=AmrParams(marking=marking, max_iters=7, max_elements=4000),
        anderson=AndersonParams())
    assert len(report.steps) >= 4
    uni = uniform_energy_series("dshape", (12, 3), k=1, levels=4)
    for step in report.steps[2:]:
        assert step.energy_residual < interp_loglog(uni, step.n_elements)


# --------------------------------------------------------------------------
# 11. Block-Jacobi preconditioning reduces GMRES iteration counts


def test_preconditioner_reduces_gmres_iterations():
    prob = get_problem("solovev-iter")
    mesh = uniform_refine(build_builtin_mesh(prob.boundary, (12, 3)))
    st = GlobalState(mesh, prob, k=2)
    A = st.normal_matrix_static()
    N, D = st.sources(st.initial_guess())
    b = st.fixed_point_rhs(st.initial_guess(), N=N, D=D)
    A_ff, b_f = st.constrain(A, b)
    from gsdpg.krylov import KrylovParams
    params = KrylovParams(restart=200, rtol=1e-8, max_iters=2000)
    M = build_block_jacobi(st)
    _, info_p = krylov_solve(A_ff, b_f, M=M, params=params)
    _, info_u = krylov_solve(A_ff, b_f, M=None, params=params)
    assert info_p["converged"]
    assert info_p["iterations"] < info_u["iterations"]


# --------------------------------------------------------------------------
# 12. Anderson mixing never needs more outer iterations than plain Picard


def test_anderson_no_slower_than_picard():
    prob = get_problem("rect-amr")
    mesh = build_builtin_mesh(prob.boundary, (6, 6))

    def run(m):
        st = GlobalState(mesh, prob, k=1)
        return solve_nonlinear(st, AndersonParams(m=m, rtol=1e-8,
                                                  max_iters=100))

    anderson = run(5)
    picard = run(0)
    assert anderson.converged
    assert anderson.iterations <= picard.iterations
