import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsdpg.mesh import (
    Mesh,
    MeshError,
    MshParseError,
    bisect_conforming,
    build_builtin_mesh,
    d_shape_curve,
    read_msh,
    rectangle_curve,
    uniform_refine,
)
from gsdpg.problems import solovev_problem


def two_triangle_mesh():
    verts = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(verts, tris)


class TestMeshValidation:
    def test_rejects_nonpositive_r(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(MeshError, match="r > 0"):
            Mesh(verts, np.array([[0, 1, 2]]))

    def test_rejects_clockwise_triangle(self):
        verts = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        with pytest.raises(MeshError, match="area"):
            Mesh(verts, np.array([[0, 2, 1]]))

    def test_rejects_vertex_out_of_range(self):
        verts = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        with pytest.raises(MeshError, match="out of range"):
            Mesh(verts, np.array([[0, 1, 5]]))

    @pytest.mark.parametrize("bad", [(1, 0, np.nan), (2, 1, np.inf)])
    def test_rejects_non_finite_vertex(self, bad):
        verts = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]])
        verts[bad[:2]] = bad[2]
        with pytest.raises(MeshError, match="vertices must be finite"):
            Mesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))

    def test_euler_relation_holds(self):
        m = two_triangle_mesh()
        assert m.n_vertices - m.n_edges + m.n_triangles == 1


class TestSkeleton:
    def test_edge_normals_are_unit(self):
        m = build_builtin_mesh(rectangle_curve(0.5, 1.5, -1.0, 1.0), (4, 4))
        norms = np.hypot(m.edge_normals[:, 0], m.edge_normals[:, 1])
        assert norms == pytest.approx(np.ones(m.n_edges), abs=1e-14)

    def test_boundary_edge_count(self):
        # structured nx x ny rectangle: 2*(nx+ny) boundary edges
        m = build_builtin_mesh(rectangle_curve(0.5, 1.5, -1.0, 1.0), (4, 3))
        assert int(m.boundary_edge_flags.sum()) == 2 * (4 + 3)

    def test_orientation_signs_oppose_on_interior_edges(self):
        m = build_builtin_mesh(rectangle_curve(0.5, 1.5, -1.0, 1.0), (3, 3))
        for e in range(m.n_edges):
            t0, t1 = m.edge_tris[e]
            s0 = m.tri_edge_sign[t0][list(m.tri_edges[t0]).index(e)]
            if t1 < 0:
                assert s0 == 1
            else:
                s1 = m.tri_edge_sign[t1][list(m.tri_edges[t1]).index(e)]
                assert s0 * s1 == -1

    def test_normal_is_outward_for_first_triangle(self):
        m = two_triangle_mesh()
        for e in range(m.n_edges):
            t0 = m.edge_tris[e, 0]
            centroid = m.vertices[m.triangles[t0]].mean(axis=0)
            mid = m.vertices[m.edges[e]].mean(axis=0)
            assert np.dot(m.edge_normals[e], mid - centroid) > 0

    def test_geometry_roundtrip(self):
        m = two_triangle_mesh()
        ref = np.array([[0.2, 0.3], [0.0, 0.0], [0.5, 0.5]])
        phys = m.map_to_physical(1, ref)
        back = m.map_to_reference(1, phys)
        assert np.abs(back - ref).max() < 1e-13


class TestBuiltinMeshes:
    def test_rectangle_counts_and_area(self):
        m = build_builtin_mesh(rectangle_curve(0.1, 1.6, -0.75, 0.75), (6, 4))
        assert m.n_triangles == 2 * 6 * 4
        assert m.total_area() == pytest.approx(1.5 * 1.5, rel=1e-13)

    def test_rectangle_mesh_is_symmetric_about_z_midline(self):
        m = build_builtin_mesh(rectangle_curve(0.1, 1.6, -0.75, 0.75), (4, 4))
        tri_sets = {
            frozenset(map(tuple, np.round(m.vertices[t], 12))) for t in m.triangles
        }
        mirrored = {
            frozenset((r, -z) for r, z in s) for s in tri_sets
        }
        assert tri_sets == mirrored

    def test_star_mesh_counts(self):
        prob = solovev_problem("iter")
        m = build_builtin_mesh(prob.boundary, (8, 2))
        assert m.n_triangles == 8 * (2 * 2 - 1)

    def test_dshape_curve_landmarks(self):
        eps, delta, kappa = 0.32, 0.33, 1.7
        c = d_shape_curve(eps, delta, kappa)
        p = c.points(np.array([0.0, np.pi / 2, np.pi]))
        assert p[0] == pytest.approx([1 + eps, 0.0], abs=1e-14)
        assert p[1] == pytest.approx([1 - delta * eps, kappa * eps], abs=1e-14)
        assert p[2] == pytest.approx([1 - eps, 0.0], abs=1e-13)

    def test_degenerate_resolution_rejected(self):
        with pytest.raises(MeshError):
            build_builtin_mesh(rectangle_curve(0.1, 1.0, 0.0, 1.0), (0, 3))


class TestUniformRefine:
    def test_counts_and_area(self):
        m = two_triangle_mesh()
        r = uniform_refine(m)
        assert r.n_triangles == 4 * m.n_triangles
        assert r.total_area() == pytest.approx(m.total_area(), rel=1e-14)
        assert np.all(r.generation == m.generation.max() + 1)

    def test_parents_cover_children_area(self):
        m = build_builtin_mesh(rectangle_curve(0.5, 1.5, 0.0, 1.0), (2, 2))
        r = uniform_refine(m)
        for p in range(m.n_triangles):
            kids = np.nonzero(r.parent_elements == p)[0]
            assert len(kids) == 4
            assert r.areas[kids].sum() == pytest.approx(m.areas[p], rel=1e-13)


class TestBisection:
    def test_marked_triangles_are_split(self):
        m = two_triangle_mesh()
        r = bisect_conforming(m, [0])
        assert r.n_triangles >= 3
        assert r.total_area() == pytest.approx(m.total_area(), rel=1e-14)

    def test_empty_marked_set_copies(self):
        m = two_triangle_mesh()
        r = bisect_conforming(m, [])
        assert r.n_triangles == m.n_triangles
        assert np.array_equal(r.parent_elements, np.arange(m.n_triangles))

    def test_result_is_conforming(self):
        m = build_builtin_mesh(rectangle_curve(0.5, 1.5, 0.0, 1.0), (3, 3))
        rng = np.random.default_rng(3)
        for _ in range(4):
            marked = rng.choice(m.n_triangles, size=max(1, m.n_triangles // 5),
                                replace=False)
            m = bisect_conforming(m, marked)
            # Mesh construction validates the manifold and Euler properties;
            # additionally every edge is shared by at most 2 triangles with
            # exactly matching endpoints (hanging nodes would break Euler).
            assert m.n_vertices - m.n_edges + m.n_triangles == 1

    def test_generation_increments(self):
        m = two_triangle_mesh()
        r = bisect_conforming(m, [0, 1])
        assert r.generation.max() >= 1
        assert r.generation.min() >= 1  # closure forces both to split here

    def test_invalid_mark_rejected(self):
        m = two_triangle_mesh()
        with pytest.raises(MeshError):
            bisect_conforming(m, [7])

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_area_preserved_under_random_marking(self, seed):
        m = build_builtin_mesh(rectangle_curve(0.5, 1.5, 0.0, 1.0), (2, 2))
        rng = np.random.default_rng(seed)
        marked = rng.choice(m.n_triangles, size=3, replace=False)
        r = bisect_conforming(m, marked)
        assert r.total_area() == pytest.approx(m.total_area(), rel=1e-12)
        assert np.all(r.parent_elements < m.n_triangles)


MSH_VALID = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 1.0 0.0 0.0
2 2.0 0.0 0.0
3 2.0 1.0 0.0
4 1.0 1.0 0.0
$EndNodes
$Elements
6
1 1 2 0 1 1 2
2 1 2 0 1 2 3
3 1 2 0 1 3 4
4 1 2 0 1 4 1
5 2 2 0 1 1 2 3
6 2 2 0 1 1 3 4
$EndElements
"""


class TestMshReader:
    def test_valid_file(self):
        m = read_msh(MSH_VALID)
        assert m.n_vertices == 4
        assert m.n_triangles == 2
        assert m.total_area() == pytest.approx(1.0, rel=1e-14)

    def test_bytes_input(self):
        assert read_msh(MSH_VALID.encode()).n_triangles == 2

    def test_bad_version_reports_line(self):
        bad = MSH_VALID.replace("2.2 0 8", "4.1 0 8")
        with pytest.raises(MshParseError, match="line 2"):
            read_msh(bad)

    def test_binary_flag_rejected(self):
        bad = MSH_VALID.replace("2.2 0 8", "2.2 1 8")
        with pytest.raises(MshParseError, match="binary"):
            read_msh(bad)

    def test_dangling_node_reference_reports_line(self):
        bad = MSH_VALID.replace("5 2 2 0 1 1 2 3", "5 2 2 0 1 1 2 9")
        with pytest.raises(MshParseError, match="unknown node 9"):
            read_msh(bad)

    def test_nonpositive_radius_reports_line(self):
        bad = MSH_VALID.replace("1 1.0 0.0 0.0", "1 -1.0 0.0 0.0")
        with pytest.raises(MshParseError, match="line 6"):
            read_msh(bad)

    @pytest.mark.parametrize("node,line", [("2 nan 0.0 0.0", 7), ("3 inf 1.0 0.0", 8)])
    def test_non_finite_node_reports_line(self, node, line):
        old = {"2": "2 2.0 0.0 0.0", "3": "3 2.0 1.0 0.0"}[node[0]]
        with pytest.raises(MshParseError, match=f"line {line}: .*non-finite"):
            read_msh(MSH_VALID.replace(old, node))

    @pytest.mark.parametrize("r", ["1.5", "0.0"])
    def test_unreferenced_node_is_dropped(self, r):
        # a point element on a node no triangle uses, as Gmsh writes for a
        # circle's centre (which may lie on the axis); the node sits
        # mid-table to check the renumbering
        text = (MSH_VALID.replace("$Nodes\n4\n", "$Nodes\n5\n")
                .replace("2 2.0 0.0 0.0\n", f"2 2.0 0.0 0.0\n5 {r} 0.5 0.0\n")
                .replace("$Elements\n6\n", "$Elements\n7\n")
                .replace("$EndElements", "7 15 2 0 1 5\n$EndElements"))
        m = read_msh(text)
        want = read_msh(MSH_VALID)
        assert np.array_equal(m.vertices, want.vertices)
        assert np.array_equal(m.triangles, want.triangles)

    def test_line_on_unreferenced_node_reports_line(self):
        text = (MSH_VALID.replace("$Nodes\n4\n", "$Nodes\n5\n")
                .replace("$EndNodes", "5 1.5 0.5 0.0\n$EndNodes")
                .replace("$Elements\n6\n", "$Elements\n7\n")
                .replace("$EndElements", "7 1 2 0 1 4 5\n$EndElements"))
        with pytest.raises(MshParseError, match="line 20: .*no triangle"):
            read_msh(text)

    def test_negative_area_reports_line(self):
        bad = MSH_VALID.replace("5 2 2 0 1 1 2 3", "5 2 2 0 1 1 3 2")
        with pytest.raises(MshParseError, match="line 17"):
            read_msh(bad)

    def test_missing_header(self):
        with pytest.raises(MshParseError, match="MeshFormat"):
            read_msh("$Nodes\n0\n$EndNodes\n")

    def test_no_triangles(self):
        bad = "\n".join(MSH_VALID.splitlines()[:10]) + "\n$Elements\n0\n$EndElements\n"
        with pytest.raises(MshParseError, match="no triangles"):
            read_msh(bad)
