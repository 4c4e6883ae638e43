import numpy as np
import pytest
from scipy.optimize import brentq

from gsdpg.basis import default_volume_degree, triangle_rule
from gsdpg.mesh import build_builtin_mesh
from gsdpg.problems import (
    dshape_problem,
    get_problem,
    linf_error,
    manufactured_problem,
    rect_amr_problem,
    solovev_coefficients,
    solovev_problem,
    solovev_psi,
)


def pde_residual(problem, psi, r, z, h=1e-5):
    """div((1/r) grad psi) + F(r,z,psi)/r by central differences."""
    def flux_r(rr, zz):
        return (psi(rr + h, zz) - psi(rr - h, zz)) / (2 * h) / rr

    def flux_z(rr, zz):
        return (psi(rr, zz + h) - psi(rr, zz - h)) / (2 * h) / rr

    div = ((flux_r(r + h, z) - flux_r(r - h, z)) / (2 * h)
           + (flux_z(r, z + h) - flux_z(r, z - h)) / (2 * h))
    F = problem.f_lin(r, z) + problem.f_nl(r, z, psi(r, z))
    return div + F / r


class TestSolovevCoefficients:
    # frozen values from an exact-rational Cramer's-rule evaluation of the
    # 3x3 shape system
    def test_iter_values(self):
        c = solovev_coefficients(0.32, 1.7, 0.33)
        assert c.d1 == pytest.approx(0.07538502966006594, rel=1e-14)
        assert c.d2 == pytest.approx(-0.20629496218788004, rel=1e-14)
        assert c.d3 == pytest.approx(-0.031433707280533366, rel=1e-14)

    def test_nstx_values(self):
        c = solovev_coefficients(0.78, 2.0, 0.35)
        assert c.d1 == pytest.approx(0.01537989503130628, rel=1e-14)
        assert c.d2 == pytest.approx(-0.3226205782144261, rel=1e-14)
        assert c.d3 == pytest.approx(-0.024707604384970754, rel=1e-14)

    def test_psi_vanishes_at_shape_points(self):
        for eps, kappa, delta in [(0.32, 1.7, 0.33), (0.78, 2.0, 0.35)]:
            c = solovev_coefficients(eps, kappa, delta)
            psi, _ = solovev_psi(c)
            assert psi(1 + eps, 0.0) == pytest.approx(0.0, abs=1e-14)
            assert psi(1 - eps, 0.0) == pytest.approx(0.0, abs=1e-14)
            assert psi(1 - delta * eps, kappa * eps) == pytest.approx(0.0, abs=1e-14)

    def test_invalid_aspect_ratio(self):
        with pytest.raises(ValueError):
            solovev_coefficients(1.5, 1.7, 0.33)

    def test_gradient_matches_finite_differences(self):
        c = solovev_coefficients(0.32, 1.7, 0.33)
        psi, grad = solovev_psi(c)
        h = 1e-6
        for r, z in [(0.9, 0.1), (1.2, -0.3), (1.0, 0.0)]:
            pr, pz = grad(r, z)
            assert pr == pytest.approx((psi(r + h, z) - psi(r - h, z)) / (2 * h), abs=1e-8)
            assert pz == pytest.approx((psi(r, z + h) - psi(r, z - h)) / (2 * h), abs=1e-8)


class TestSolovevProblem:
    def test_exact_solution_satisfies_pde(self):
        prob = solovev_problem("iter")
        for r, z in [(0.9, 0.2), (1.1, -0.3), (1.0, 0.0)]:
            assert pde_residual(prob, prob.exact_psi, r, z) == pytest.approx(0.0, abs=1e-5)

    def test_boundary_is_zero_level_set(self):
        prob = solovev_problem("iter")
        s = np.linspace(0, 2 * np.pi, 17)
        pts = prob.boundary.points(s)
        vals = np.array([prob.exact_psi(p[0], p[1]) for p in pts])
        assert np.abs(vals).max() < 1e-12

    @pytest.mark.parametrize("kind,shape", [("iter", (0.32, 1.7, 0.33)),
                                            ("nstx", (0.78, 2.0, 0.35))])
    def test_boundary_is_first_zero_crossing(self, kind, shape):
        psi, grad = solovev_psi(solovev_coefficients(*shape))
        eps = shape[0]
        axis = brentq(lambda r: grad(r, 0.0)[0], 1 - eps + 1e-12, 1 + eps - 1e-12,
                      xtol=1e-15, rtol=1e-15)
        s = np.linspace(0.0, 2 * np.pi, 2001)[:-1]
        pts = solovev_problem(kind).boundary.points(s)
        r, z = pts[:, 0], pts[:, 1]
        assert np.all(r > 0)
        assert np.abs(psi(r, z)).max() <= 1e-12
        # inside all the way from the axis: no earlier crossing was skipped
        frac = np.linspace(0.0, 1.0, 66)[1:-1, None]
        assert np.all(psi(axis + frac * (r - axis), frac * z) < 0)
        # reference: brentq on the first sign change of a fine ray sampling
        t = np.linspace(0.0, 3.0, 3001)
        ref = np.empty_like(pts)
        for i, si in enumerate(s):
            cs, sn = np.cos(si), np.sin(si)
            j = np.argmax(psi(axis + t * cs, t * sn) >= 0)
            tb = brentq(lambda tt: psi(axis + tt * cs, tt * sn), t[j - 1], t[j],
                        xtol=1e-15, rtol=1e-15)
            ref[i] = axis + tb * cs, tb * sn
        assert np.abs(pts - ref).max() <= 1e-13

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            solovev_problem("sparc")


class TestManufacturedProblem:
    def test_exact_solution_satisfies_pde(self):
        prob = manufactured_problem()
        for r, z in [(0.8, 0.1), (1.2, -0.4), (1.05, 0.35)]:
            assert pde_residual(prob, prob.exact_psi, r, z) == pytest.approx(0.0, abs=1e-5)

    def test_derivative_of_nonlinear_source(self):
        prob = manufactured_problem()
        h = 1e-6
        for r, z, p in [(0.9, 0.2, 0.3), (1.3, -0.1, -0.5)]:
            fd = (prob.f_nl(r, z, p + h) - prob.f_nl(r, z, p - h)) / (2 * h)
            assert prob.df_nl(r, z, p) == pytest.approx(fd, rel=1e-8)

    def test_exact_q_is_scaled_gradient(self):
        prob = manufactured_problem()
        h = 1e-6
        r, z = 1.1, 0.2
        qr, qz = prob.exact_q(r, z)
        pr = (prob.exact_psi(r + h, z) - prob.exact_psi(r - h, z)) / (2 * h)
        pz = (prob.exact_psi(r, z + h) - prob.exact_psi(r, z - h)) / (2 * h)
        assert qr == pytest.approx(-pr / r, abs=1e-8)
        assert qz == pytest.approx(-pz / r, abs=1e-8)


class TestOtherProblems:
    def test_dshape_derivative(self):
        prob = dshape_problem()
        h = 1e-6
        for p in [-0.7, 0.0, 0.4, 1.2]:
            fd = (prob.f_nl(1.2, 0.1, p + h) - prob.f_nl(1.2, 0.1, p - h)) / (2 * h)
            assert prob.df_nl(1.2, 0.1, p) == pytest.approx(fd, abs=1e-7)

    def test_dshape_boundary_zero(self):
        prob = dshape_problem()
        assert prob.psi_d(1.3, 0.2) == 0.0

    def test_rect_amr_derivative(self):
        prob = rect_amr_problem()
        h = 1e-7
        for p in [-0.3, -0.05, 0.0, 0.02, 0.25]:
            fd = (prob.f_nl(0.8, 0.1, p + h) - prob.f_nl(0.8, 0.1, p - h)) / (2 * h)
            assert prob.df_nl(0.8, 0.1, p) == pytest.approx(fd, rel=2e-5, abs=1e-6)

    def test_rect_amr_boundary_value(self):
        assert rect_amr_problem().psi_d(0.1, 0.0) == 0.25

    def test_get_problem_names(self):
        for name in ["solovev-iter", "solovev-nstx", "manufactured",
                     "dshape", "rect-amr"]:
            assert get_problem(name).name == name
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("tokamak")


class TestLinfError:
    def test_zero_for_exact_polynomial(self):
        prob = solovev_problem("iter")
        mesh = build_builtin_mesh(prob.boundary, (6, 2))

        def field(t, ref):
            phys = mesh.map_to_physical(t, ref)
            return prob.exact_psi(phys[..., 0], phys[..., 1])

        assert linf_error(field, prob.exact_psi, mesh, 2) < 1e-14

    def test_detects_constant_offset(self):
        prob = solovev_problem("iter")
        mesh = build_builtin_mesh(prob.boundary, (6, 2))

        def field(t, ref):
            phys = mesh.map_to_physical(t, ref)
            return prob.exact_psi(phys[..., 0], phys[..., 1]) + 0.125

        assert linf_error(field, prob.exact_psi, mesh, 2) == pytest.approx(0.125, rel=1e-12)

    def test_vector_fields_reduce_componentwise(self):
        prob = solovev_problem("iter")
        mesh = build_builtin_mesh(prob.boundary, (6, 2))

        def field(t, ref):
            phys = mesh.map_to_physical(t, ref)
            return np.stack(prob.exact_q(phys[..., 0], phys[..., 1]), axis=-1) + [0.0, 0.5]

        assert linf_error(field, prob.exact_q, mesh, 2) == pytest.approx(0.5, rel=1e-12)

    def test_matches_element_loop_reference(self):
        from gsdpg.solvers import solve_nonlinear
        from gsdpg.system import GlobalState
        prob = get_problem("manufactured")
        mesh = build_builtin_mesh(prob.boundary, (8, 2))
        st = GlobalState(mesh, prob, k=2)
        U = solve_nonlinear(st).U
        tr = st.trial
        rule = triangle_rule(default_volume_degree(2, 2))
        ref = np.vstack([rule.points, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        vals = tr.basis.eval(ref)
        # the element loop: one element's coefficients and exact values at a time
        want_psi = want_q = 0.0
        for t in range(mesh.n_triangles):
            phys = mesh.map_to_physical(t, ref)
            r, z = phys[:, 0], phys[:, 1]
            psi = vals @ U[tr.psi_dofs(t)]
            q = vals @ U[tr.q_dofs(t)].reshape(2, tr.nk).T
            want_psi = max(want_psi, np.abs(psi - prob.exact_psi(r, z)).max())
            want_q = max(want_q, np.abs(q - np.column_stack(prob.exact_q(r, z))).max())
        got_psi = linf_error(lambda t, rp: st.eval_psi(U, t, rp), prob.exact_psi, mesh, 2)
        got_q = linf_error(lambda t, rp: st.eval_q(U, t, rp), prob.exact_q, mesh, 2)
        assert got_psi == pytest.approx(want_psi, rel=1e-12)
        assert got_q == pytest.approx(want_q, rel=1e-12)
