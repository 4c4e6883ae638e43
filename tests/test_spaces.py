import numpy as np
import pytest

from gsdpg.assembly import ElementCache
from gsdpg.mesh import Mesh, build_builtin_mesh, rectangle_curve
from gsdpg.problems import get_problem
from gsdpg.spaces import _REF_VERTS, TestSpace, TrialSpace, interpolate_boundary


def single_triangle():
    return Mesh(np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]),
                np.array([[0, 1, 2]]))


def small_rect(nx=2, ny=2):
    return build_builtin_mesh(rectangle_curve(0.5, 1.5, 0.0, 1.0), (nx, ny))


class TestTrialSpaceCounts:
    def test_single_triangle_k1(self):
        # one element, k=1: q has 2*3, psi 3, normal trace 3 edges x 2 nodes,
        # psihat 3 vertices + 3 edge interiors
        sp = TrialSpace(single_triangle(), 1)
        assert sp.n_q == 6
        assert sp.n_psi == 3
        assert sp.n_qhat == 6
        assert sp.n_psihat == 6
        assert sp.n_total == 21

    def test_counts_scale_with_mesh(self):
        m = small_rect(3, 2)
        k = 2
        sp = TrialSpace(m, k)
        nk = (k + 1) * (k + 2) // 2
        assert sp.n_q == 2 * m.n_triangles * nk
        assert sp.n_psi == m.n_triangles * nk
        assert sp.n_qhat == m.n_edges * (k + 1)
        assert sp.n_psihat == m.n_vertices + m.n_edges * k
        assert sp.n_total == sp.n_q + sp.n_psi + sp.n_qhat + sp.n_psihat

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            TrialSpace(single_triangle(), 0)

    def test_offsets_are_contiguous(self):
        sp = TrialSpace(small_rect(), 1)
        assert sp.offset_q == 0
        assert sp.offset_psi == sp.n_q
        assert sp.offset_qhat == sp.n_q + sp.n_psi
        assert sp.offset_psihat == sp.offset_qhat + sp.n_qhat


class TestElementDofs:
    def test_layout_and_length(self):
        sp = TrialSpace(small_rect(), 2)
        dofs = sp.element_dofs(0)
        assert len(dofs) == sp.n_local()
        nk = sp.nk
        assert np.array_equal(dofs[:2 * nk], sp.q_dofs(0))
        assert np.array_equal(dofs[2 * nk:3 * nk], sp.psi_dofs(0))

    def test_interior_dofs_are_disjoint(self):
        sp = TrialSpace(small_rect(), 1)
        seen = set()
        for t in range(sp.mesh.n_triangles):
            ids = set(sp.q_dofs(t)) | set(sp.psi_dofs(t))
            assert not ids & seen
            seen |= ids

    def test_shared_edge_dofs_match_between_neighbors(self):
        m = small_rect()
        sp = TrialSpace(m, 2)
        for e in range(m.n_edges):
            t0, t1 = m.edge_tris[e]
            if t1 < 0:
                continue
            d0 = set(sp.element_dofs(t0))
            d1 = set(sp.element_dofs(t1))
            shared = set(sp.qhat_edge_dofs(e)) | set(sp.psihat_edge_dofs(e))
            assert shared <= d0 and shared <= d1

    def test_psihat_edge_dofs_share_vertex_ids(self):
        m = small_rect()
        sp = TrialSpace(m, 1)
        # two edges meeting at a vertex expose the same global vertex DOF
        v = int(m.edges[0, 0])
        incident = [e for e in range(m.n_edges) if v in m.edges[e]]
        assert len(incident) >= 2
        dof_sets = [set(sp.psihat_edge_dofs(e)) for e in incident]
        common = set.intersection(*dof_sets)
        assert sp.offset_psihat + v in common


class TestEdgeGeometry:
    def test_param_runs_lo_to_hi(self):
        m = small_rect()
        sp = TrialSpace(m, 1)
        for t in range(m.n_triangles):
            for le in range(3):
                e = m.tri_edges[t, le]
                lo, hi = m.edges[e]
                sign, length = m.tri_edge_sign[t, le], m.edge_lengths[e]
                ref0 = _REF_VERTS[np.nonzero(m.triangles[t] == lo)[0][0]]
                refd = _REF_VERTS[np.nonzero(m.triangles[t] == hi)[0][0]] - ref0
                p0 = m.map_to_physical(t, ref0[None, :])[0]
                p1 = m.map_to_physical(t, (ref0 + refd)[None, :])[0]
                assert np.allclose(p0, m.vertices[lo])
                assert np.allclose(p1, m.vertices[hi])
                assert length == pytest.approx(np.linalg.norm(p1 - p0), rel=1e-13)
                assert sign in (-1, 1)


class TestTestSpace:
    def test_dimensions(self):
        m = small_rect()
        ts = TestSpace(2, 2)
        nks = (2 + 2 + 1) * (2 + 2 + 2) // 2
        assert ts.nks == nks
        cache = ElementCache(m, TrialSpace(m, 2), ts)
        assert cache.W.shape[:2] == (m.n_triangles, 3 * ts.nks)

    def test_enrichment_lower_bound(self):
        with pytest.raises(ValueError):
            TestSpace(2, 1)

    def test_rows_partition(self):
        # the stacked B_K keep each element's test rows under its own index
        m = small_rect()
        ts = TestSpace(1, 2)
        B, _ = ElementCache(m, TrialSpace(m, 1), ts).matrices()
        rows = np.arange(B.shape[0] * B.shape[1]).reshape(B.shape[:2])
        all_rows = np.concatenate([rows[t] for t in range(m.n_triangles)])
        assert np.array_equal(np.sort(all_rows), np.arange(m.n_triangles * 3 * ts.nks))


def reference_boundary(space, psi_d):
    """interpolate_boundary one boundary edge and one node at a time; the
    last edge through a shared vertex sets its value."""
    m = space.mesh
    values = {}
    for e in np.nonzero(m.boundary_edge_flags)[0]:
        lo, hi = m.edges[e]
        t = space.psihat_basis.nodes[:, None]
        pts = m.vertices[lo] + t * (m.vertices[hi] - m.vertices[lo])
        for d, p in zip(space.psihat_edge_dofs(int(e)), pts):
            # 0-d arrays: numpy rounds x**4 of a scalar differently
            values[int(d)] = float(psi_d(np.asarray(p[0]), np.asarray(p[1])))
    dofs = np.array(sorted(values), dtype=int)
    return dofs, np.array([values[d] for d in dofs])


BUILTIN_PROBLEMS = ["solovev-iter", "solovev-nstx", "manufactured", "dshape", "rect-amr"]


class TestBoundaryInterpolation:
    def test_constant_datum(self):
        m = small_rect()
        sp = TrialSpace(m, 2)
        bd = interpolate_boundary(sp, lambda r, z: 0.25)
        assert np.all(bd.values == 0.25)
        boundary = sp.psihat_edge_dofs(np.nonzero(m.boundary_edge_flags)[0])
        assert np.array_equal(bd.dofs, np.unique(boundary))

    @pytest.mark.parametrize("name", BUILTIN_PROBLEMS)
    def test_matches_point_loop_reference(self, name):
        prob = get_problem(name)
        res = (3, 3) if name == "rect-amr" else (8, 2)
        sp = TrialSpace(build_builtin_mesh(prob.boundary, res), 2)
        bd = interpolate_boundary(sp, prob.psi_d)
        dofs, values = reference_boundary(sp, prob.psi_d)
        assert np.array_equal(bd.dofs, dofs)
        assert np.abs(bd.values - values).max() <= 1e-15 * np.abs(values).max()
        # lo + 1 * (hi - lo) need not round to hi, so a vertex shared by two
        # edges gets two points; the coordinates show which one won
        for coord in (lambda r, z: r, lambda r, z: z):
            got = interpolate_boundary(sp, coord).values
            assert np.array_equal(got, reference_boundary(sp, coord)[1])

    def test_linear_datum_exact_at_nodes(self):
        m = small_rect()
        sp = TrialSpace(m, 1)
        bd = interpolate_boundary(sp, lambda r, z: 2.0 * r - z)
        # vertex DOFs carry the vertex values
        for d, v in zip(bd.dofs, bd.values):
            if d < sp.offset_psihat + m.n_vertices:
                vtx = d - sp.offset_psihat
                r, z = m.vertices[vtx]
                assert v == pytest.approx(2.0 * r - z, rel=1e-14)

    def test_only_boundary_dofs_constrained(self):
        m = small_rect()
        sp = TrialSpace(m, 1)
        bd = interpolate_boundary(sp, lambda r, z: 1.0)
        interior_edges = np.nonzero(~m.boundary_edge_flags)[0]
        for e in interior_edges:
            lo, hi = m.edges[e]
            on_boundary = any(
                lo in m.edges[be] or hi in m.edges[be]
                for be in np.nonzero(m.boundary_edge_flags)[0]
            )
            mid_dofs = sp.psihat_edge_dofs(int(e))[1:-1]
            assert not set(mid_dofs) & set(bd.dofs)
            if not on_boundary:
                assert not set(sp.psihat_edge_dofs(int(e))) & set(bd.dofs)
