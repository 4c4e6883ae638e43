import dataclasses
import json

import numpy as np
import pytest

from gsdpg.amr import (
    AmrParams,
    MarkingParams,
    amr_loop,
    estimate,
    mark,
    transfer_solution,
)
import gsdpg.amr
from gsdpg.mesh import bisect_conforming, build_builtin_mesh, rectangle_curve, uniform_refine
from gsdpg.problems import get_problem
from gsdpg.solvers import AndersonParams, solve_nonlinear
from gsdpg.spaces import _REF_VERTS
from gsdpg.system import GlobalState


class TestMarking:
    def test_hand_traced_thresholds(self):
        # indicators: one dominant, one moderate, one tiny, one below atol
        ind = np.array([1.0, 0.1, 1e-3, 1e-14])
        total = np.sqrt(np.sum(ind**2))
        p = MarkingParams(theta_max=0.025, theta_total=0.025, atol=1e-12)
        marked = mark(ind, total, p)
        # cutoffs: atol=1e-12, 0.025*1.0=0.025, 0.025*total/sqrt(4)~0.0126
        # -> only 1.0 and 0.1 exceed all three
        assert np.array_equal(marked, [0, 1])

    def test_max_threshold_alone(self):
        ind = np.array([1.0, 0.03, 0.02])
        marked = mark(ind, np.sqrt(np.sum(ind**2)),
                      MarkingParams(theta_max=0.025, theta_total=0.0, atol=0.0))
        assert np.array_equal(marked, [0, 1])

    def test_absolute_floor_suppresses_everything(self):
        ind = np.array([1e-13, 5e-14])
        marked = mark(ind, np.sqrt(np.sum(ind**2)), MarkingParams(atol=1e-12))
        assert len(marked) == 0

    def test_empty_input(self):
        assert len(mark(np.array([]), 0.0)) == 0


class TestEstimate:
    def test_matches_energy_residual(self):
        prob = get_problem("rect-amr")
        mesh = build_builtin_mesh(prob.boundary, (3, 3))
        st = GlobalState(mesh, prob, k=1)
        U = st.apply_boundary(np.zeros(st.n_total))
        total, ind = estimate(st, U)
        t2, i2 = st.energy_residual(U)
        assert total == t2
        assert np.array_equal(ind, i2)


def reference_transfer(old, U_old, new):
    """transfer_solution one element and one edge at a time."""
    mesh, tr = new.mesh, new.trial
    rule = new.cache.vol_rule
    proj = (new.cache.uv * rule.weights[:, None]).T
    U = np.zeros(new.n_total)
    for t in range(mesh.n_triangles):
        parent = int(mesh.parent_elements[t])
        ref = old.mesh.map_to_reference(parent, mesh.map_to_physical(t, rule.points))
        U[tr.psi_dofs(t)] = proj @ old.eval_psi(U_old, parent, ref)
        U[tr.q_dofs(t)] = (proj @ old.eval_q(U_old, parent, ref)).T.ravel()
    for e in range(mesh.n_edges):
        t0 = int(mesh.edge_tris[e, 0])
        lo, hi = mesh.edges[e]
        a = _REF_VERTS[int(np.nonzero(mesh.triangles[t0] == lo)[0][0])]
        d = _REF_VERTS[int(np.nonzero(mesh.triangles[t0] == hi)[0][0])] - a
        refq = a + tr.qhat_basis.nodes[:, None] * d
        refp = a + tr.psihat_basis.nodes[:, None] * d
        U[tr.qhat_edge_dofs(e)] = new.eval_q(U, t0, refq) @ mesh.edge_normals[e]
        U[tr.psihat_edge_dofs(e)] = new.eval_psi(U, t0, refp)
    return new.apply_boundary(U)


class TestTransfer:
    def poly_vector(self, st):
        """Trial vector holding an exactly representable polynomial state."""
        res = solve_nonlinear(st)
        return res.U

    def test_solution_transfer_preserves_polynomials(self):
        prob = get_problem("solovev-iter")
        mesh = build_builtin_mesh(prob.boundary, (4, 2))
        st = GlobalState(mesh, prob, k=1)
        U = self.poly_vector(st)
        fine = uniform_refine(mesh)
        st_f = GlobalState(fine, prob, k=1)
        U_f = transfer_solution(st, U, st_f)
        ref = np.array([[1 / 3, 1 / 3], [0.1, 0.2], [0.6, 0.3]])
        for t in range(fine.n_triangles):
            parent = int(fine.parent_elements[t])
            phys = fine.map_to_physical(t, ref)
            ref_c = mesh.map_to_reference(parent, phys)
            got = st_f.eval_psi(U_f, t, ref)
            want = st.eval_psi(U, parent, ref_c)
            assert np.abs(got - want).max() < 1e-11
            gq = st_f.eval_q(U_f, t, ref)
            wq = st.eval_q(U, parent, ref_c)
            assert np.abs(gq - wq).max() < 1e-11

    def test_transfer_after_bisection(self):
        prob = get_problem("rect-amr")
        mesh = build_builtin_mesh(prob.boundary, (3, 3))
        st = GlobalState(mesh, prob, k=1)
        U = st.apply_boundary(0.01 * np.ones(st.n_total))
        fine = bisect_conforming(mesh, [0, 4])
        st_f = GlobalState(fine, prob, k=1)
        U_f = transfer_solution(st, U, st_f)
        assert np.all(np.isfinite(U_f))
        # boundary data is re-imposed exactly
        assert np.abs(U_f[st_f.bdata.dofs] - st_f.bdata.values).max() == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_loop_reference(self, jittered_mesh, k):
        prob = get_problem("rect-amr")
        st = GlobalState(jittered_mesh, prob, k)
        rng = np.random.default_rng(k)
        U = st.apply_boundary(rng.standard_normal(st.n_total))
        fine = bisect_conforming(jittered_mesh, [0, 5, 11, 20])
        st_f = GlobalState(fine, prob, k)
        got = transfer_solution(st, U, st_f)
        want = reference_transfer(st, U, st_f)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_degree_mismatch_rejected(self):
        prob = get_problem("rect-amr")
        mesh = build_builtin_mesh(prob.boundary, (2, 2))
        st1 = GlobalState(mesh, prob, k=1)
        fine = uniform_refine(mesh)
        st2 = GlobalState(fine, prob, k=2)
        with pytest.raises(ValueError, match="degree"):
            transfer_solution(st1, np.zeros(st1.n_total), st2)

    def test_missing_parents_rejected(self):
        prob = get_problem("rect-amr")
        mesh = build_builtin_mesh(prob.boundary, (2, 2))
        st1 = GlobalState(mesh, prob, k=1)
        st2 = GlobalState(build_builtin_mesh(prob.boundary, (3, 3)), prob, k=1)
        with pytest.raises(ValueError, match="parent"):
            transfer_solution(st1, np.zeros(st1.n_total), st2)


class TestAmrLoop:
    def test_estimator_decreases_on_rect_problem(self):
        prob = get_problem("rect-amr")
        mesh = build_builtin_mesh(prob.boundary, (6, 6))
        params = AmrParams(max_iters=4, max_elements=5000)
        state, U, report = amr_loop(prob, mesh, k=1, params=params,
                                    anderson=AndersonParams(rtol=1e-8))
        E = [s.energy_residual for s in report.steps]
        assert len(E) >= 3
        assert all(E[i + 1] < E[i] for i in range(len(E) - 1))
        sizes = [s.n_elements for s in report.steps]
        assert all(sizes[i + 1] > sizes[i] for i in range(len(sizes) - 1))

    def test_steps_record_solve_convergence(self):
        prob = get_problem("rect-amr")
        mesh = build_builtin_mesh(prob.boundary, (4, 4))
        _, _, ok = amr_loop(prob, mesh, k=1, params=AmrParams(max_iters=2))
        assert [s.converged for s in ok.steps] == [True, True]
        _, _, capped = amr_loop(prob, mesh, k=1, params=AmrParams(max_iters=2),
                                anderson=AndersonParams(max_iters=1))
        assert [s.converged for s in capped.steps] == [False, False]
        assert [s.nonlinear_iters for s in capped.steps] == [1, 1]

    def test_nothing_marked_over_unconverged_solve(self):
        prob = get_problem("rect-amr")
        mesh = build_builtin_mesh(prob.boundary, (4, 4))
        params = AmrParams(marking=MarkingParams(atol=np.inf))
        _, _, report = amr_loop(prob, mesh, k=1, params=params,
                                anderson=AndersonParams(max_iters=1))
        assert [s.n_marked for s in report.steps] == [0]
        assert report.steps[0].converged is False
        assert report.converged is False
        assert report.message == ("no elements above marking thresholds, "
                                  "but the last nonlinear solve did not converge")
        json.dumps(dataclasses.asdict(report))

    def test_builds_one_state_per_solve(self, monkeypatch):
        built = []

        class CountingState(GlobalState):
            def __init__(self, *args, **kwargs):
                built.append(args[0].n_triangles)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(gsdpg.amr, "GlobalState", CountingState)
        prob = get_problem("rect-amr")
        mesh = build_builtin_mesh(prob.boundary, (4, 4))
        state, _, report = amr_loop(prob, mesh, k=1, params=AmrParams(max_iters=2))
        assert report.message == "max AMR iterations reached"
        assert len(built) == len(report.steps) == 2
        assert state.mesh.n_triangles == report.steps[-1].n_elements

    def test_budget_stops_loop(self):
        prob = get_problem("rect-amr")
        mesh = build_builtin_mesh(prob.boundary, (4, 4))
        params = AmrParams(max_iters=10, max_elements=40)
        _, _, report = amr_loop(prob, mesh, k=1, params=params)
        assert report.message == "element budget exhausted"

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_no_iteration_budget_rejected(self, max_iters):
        # with no solve there is no final state to return
        prob = get_problem("rect-amr")
        mesh = build_builtin_mesh(prob.boundary, (3, 3))
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            amr_loop(prob, mesh, k=1, params=AmrParams(max_iters=max_iters))
