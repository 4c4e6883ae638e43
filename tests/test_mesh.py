import re
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsdpg.mesh import (
    Mesh,
    MeshError,
    MshParseError,
    _polygon_centroid,
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

    def test_edge_on_three_triangles_rejected(self):
        verts = np.array([[1.0, 0.0], [2.0, 0.0], [1.5, 1.0], [1.5, 2.0], [1.5, -1.0]])
        with pytest.raises(MeshError, match=r"edge \(0, 1\) adjacent to more than 2"):
            Mesh(verts, np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]]))

    def test_overlapping_triangles_rejected(self):
        # a third counterclockwise triangle over the unit square: every
        # triangle has positive area and the Euler relation holds, but the
        # total area would be 1.5
        verts = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]])
        with pytest.raises(MeshError, match=r"edge \(2, 3\) is traversed in the same direction"):
            Mesh(verts, np.array([[0, 1, 2], [0, 2, 3], [1, 2, 3]]))

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

    @pytest.mark.parametrize("marks", [np.array([0]), {0}, range(1)])
    def test_any_iterable_of_indices_accepted(self, marks):
        want = bisect_conforming(two_triangle_mesh(), [0])
        assert np.array_equal(bisect_conforming(two_triangle_mesh(), marks).triangles,
                              want.triangles)

    @pytest.mark.parametrize("marks", [np.array([True, False]), [0.0, 1.0]])
    def test_non_integer_marks_rejected(self, marks):
        # a boolean mask would otherwise refine elements 0 and 1
        with pytest.raises(MeshError, match="integer"):
            bisect_conforming(two_triangle_mesh(), marks)

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

    def test_overlapping_triangles_rejected(self):
        text = (MSH_VALID.replace("$Elements\n6\n", "$Elements\n7\n")
                .replace("$EndElements", "7 2 2 0 1 2 3 4\n$EndElements"))
        with pytest.raises(MeshError, match=r"edge \(2, 3\) is traversed in the same direction"):
            read_msh(text)

    def test_repeated_node_id_reports_line(self):
        text = (MSH_VALID.replace("$Nodes\n4\n", "$Nodes\n5\n")
                .replace("$EndNodes", "2 5.0 5.0 0.0\n$EndNodes"))
        with pytest.raises(MshParseError, match="line 10: repeated node id 2"):
            read_msh(text)

    @pytest.mark.parametrize("stray", ["garbage line", "stray 1 2 3", "$EndFoo"])
    def test_line_outside_a_section_reports_line(self, stray):
        text = MSH_VALID.replace("$EndNodes\n", f"$EndNodes\n\n{stray}\n")
        with pytest.raises(MshParseError, match=f"line 12: '{re.escape(stray)}' outside"):
            read_msh(text)

    def test_unknown_section_is_skipped(self):
        text = MSH_VALID.replace("$EndNodes\n", "$EndNodes\n$Foo\nany 1 2\n$EndFoo\n")
        assert read_msh(text).n_triangles == 2

    def test_missing_header(self):
        with pytest.raises(MshParseError, match="MeshFormat"):
            read_msh("$Nodes\n0\n$EndNodes\n")

    NODE_LINES = "1 1.0 0.0 0.0\n2 2.0 0.0 0.0\n3 2.0 1.0 0.0\n4 1.0 1.0 0.0\n"

    @pytest.mark.parametrize("old, new, match", [
        ("$MeshFormat\n", "garbage\n$MeshFormat\n", "line 1: expected $MeshFormat, got 'garbage'"),
        ("2.2 0 8\n", "", "line 1: unsupported MSH version ?"),
        ("2.2 0 8\n", "2.2 0 8\nextra\n", "line 3: expected $EndMeshFormat"),
        ("$EndMeshFormat\n", "", "line 1: unterminated section $MeshFormat"),
        ("$Nodes\n4\n", "$Nodes\nfour\n", "line 5: malformed node count 'four'"),
        ("4\n" + NODE_LINES, "", "line 4: malformed node count ''"),
        ("1 1.0 0.0 0.0", "1 1.0", "line 6: malformed node line '1 1.0'"),
        ("1 1.0 0.0 0.0", "1 one 0.0 0.0", "line 6: malformed node line '1 one 0.0 0.0'"),
        ("$Nodes\n4\n", "$Nodes\n3\n", "line 5: $Nodes declares 3 nodes, found 4"),
        ("$Nodes\n4\n", "$Nodes\n5\n", "line 5: $Nodes declares 5 nodes, found 4"),
        ("$Nodes\n", "$Nodes\n$EndNodes\n$Nodes\n", "line 6: repeated section $Nodes"),
        ("$Elements\n6\n", "$Elements\n6.0\n", "line 12: malformed element count '6.0'"),
        ("1 1 2 0 1 1 2\n", "1 1\n", "line 13: malformed element line '1 1'"),
        ("1 1 2 0 1 1 2\n", "1 1 2 0 1 1 b\n", "line 13: malformed element line '1 1 2 0 1 1 b'"),
        ("1 1 2 0 1 1 2\n", "1 1 2 0 1 1 2 3\n", "line 13: line element needs 2 nodes"),
        ("5 2 2 0 1 1 2 3", "5 2 2 0 1 1 2", "line 17: triangle element needs 3 nodes"),
        ("$Elements\n6\n", "$Elements\n7\n", "line 12: $Elements declares 7 elements, found 6"),
        ("$Elements\n6\n", "$Elements\n5\n", "line 12: $Elements declares 5 elements, found 6"),
        ("$EndElements\n", "", "line 11: unterminated section $Elements"),
        ("$EndNodes\n", "$EndNodes\n$Foo\n", "line 11: unterminated section $Foo"),
        ("$Nodes\n4\n" + NODE_LINES + "$EndNodes\n", "", "line 13: no $Nodes section"),
    ])
    def test_rejection_reports_line(self, old, new, match):
        assert old in MSH_VALID
        with pytest.raises(MshParseError, match=f"^{re.escape(match)}"):
            read_msh(MSH_VALID.replace(old, new, 1))

    def test_missing_elements_section_reports_end_of_file(self):
        text = "".join(MSH_VALID.splitlines(keepends=True)[:10]) + "\n"
        with pytest.raises(MshParseError, match=r"^line 12: no \$Elements section"):
            read_msh(text)

    @pytest.mark.parametrize("text, line", [("", 1), ("\n  \n", 3)])
    def test_empty_stream_reports_end_of_file(self, text, line):
        with pytest.raises(MshParseError,
                           match=rf"^line {line}: expected \$MeshFormat, got end of file"):
            read_msh(text)

    @pytest.mark.parametrize("element, match", [
        ("7 1 2 0 1 2 4", r"boundary line \(1, 3\) is not a mesh edge"),
        ("7 1 2 0 1 3 1", r"declared boundary edge \(0, 2\) is interior"),
    ])
    def test_boundary_line_must_be_a_boundary_edge(self, element, match):
        text = (MSH_VALID.replace("$Elements\n6\n", "$Elements\n7\n")
                .replace("$EndElements", f"{element}\n$EndElements"))
        with pytest.raises(MeshError, match=match):
            read_msh(text)

    def test_disconnected_mesh_violates_euler_relation(self):
        text = (MSH_VALID.replace("$Nodes\n4\n", "$Nodes\n7\n")
                .replace("$EndNodes", "5 3.0 0.0 0.0\n6 4.0 0.0 0.0\n7 4.0 1.0 0.0\n$EndNodes")
                .replace("$Elements\n6\n", "$Elements\n7\n")
                .replace("$EndElements", "7 2 2 0 2 5 6 7\n$EndElements"))
        with pytest.raises(MeshError, match=r"Euler relation violated: 7 - 8 \+ 3 = 2 != 1"):
            read_msh(text)

    def test_no_triangles(self):
        bad = "\n".join(MSH_VALID.splitlines()[:10]) + "\n$Elements\n0\n$EndElements\n"
        with pytest.raises(MshParseError, match="no triangles"):
            read_msh(bad)


# -- loop references --------------------------------------------------------
# The per-element implementations the stacked mesh layer replaced.  Meshes
# not made by bisection must match them bit for bit; bisection must produce
# the same triangles up to numbering.


def _loop_skeleton(vertices, triangles):
    """Edge skeleton by a dict walk over (triangle, local edge) pairs."""
    t = triangles
    edge_map = {}
    edge_list, edge_tris = [], []
    tri_edges = np.empty((len(t), 3), dtype=int)
    for ti in range(len(t)):
        for le in range(3):
            a, b = t[ti, (le + 1) % 3], t[ti, (le + 2) % 3]
            key = (a, b) if a < b else (b, a)
            ei = edge_map.get(key)
            if ei is None:
                ei = len(edge_list)
                edge_map[key] = ei
                edge_list.append(key)
                edge_tris.append([])
            if len(edge_tris[ei]) >= 2:
                raise MeshError(f"edge {key} adjacent to more than 2 triangles")
            edge_tris[ei].append(ti)
            tri_edges[ti, le] = ei
    edges = np.array(edge_list, dtype=int)
    edge_tris = np.array([[et[0], et[1] if len(et) == 2 else -1] for et in edge_tris],
                         dtype=int)
    tri_edge_sign = np.where(edge_tris[:, 0][tri_edges] == np.arange(len(t))[:, None], 1, -1)
    v = vertices
    tang = v[edges[:, 1]] - v[edges[:, 0]]
    lengths = np.hypot(tang[:, 0], tang[:, 1])
    normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / lengths[:, None]
    centroids = v[t].mean(axis=1)
    mid = 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])
    out = mid - centroids[edge_tris[:, 0]]
    normal[np.sum(normal * out, axis=1) < 0] *= -1.0
    return types.SimpleNamespace(edges=edges, edge_tris=edge_tris, tri_edges=tri_edges,
                                 tri_edge_sign=tri_edge_sign, edge_normals=normal)


def _loop_rectangle_mesh(curve, nx, ny):
    corners = curve.points(np.linspace(0.0, 2.0 * np.pi, 5)[:4])
    r0, z0 = corners.min(axis=0)
    r1, z1 = corners.max(axis=0)
    rs = np.linspace(r0, r1, nx + 1)
    zs = np.linspace(z0, z1, ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    verts = np.array([[r, z] for z in zs for r in rs])
    tris = []
    for j in range(ny):
        for i in range(nx):
            c00, c10 = vid(i, j), vid(i + 1, j)
            c01, c11 = vid(i, j + 1), vid(i + 1, j + 1)
            if zs[j] + zs[j + 1] <= 2.0 * (z0 + z1) / 2.0 + 1e-15:
                tris.append((c00, c10, c11))
                tris.append((c00, c11, c01))
            else:
                tris.append((c00, c10, c01))
                tris.append((c10, c11, c01))
    return Mesh(verts, np.array(tris, dtype=int))


def _loop_star_mesh(curve, n_angular, n_radial):
    bd = curve.points(np.linspace(0.0, 2.0 * np.pi, n_angular, endpoint=False))
    area2 = np.sum(bd[:, 0] * np.roll(bd[:, 1], -1) - np.roll(bd[:, 0], -1) * bd[:, 1])
    if area2 < 0:
        bd = bd[::-1]
    centroid = _polygon_centroid(bd)
    verts = [bd]
    for j in range(1, n_radial):
        verts.append(centroid + (1.0 - j / n_radial) * (bd - centroid))
    verts = np.vstack(verts + [centroid[None, :]])
    center = len(verts) - 1
    n = n_angular
    tris = []
    for j in range(n_radial - 1):
        for i in range(n):
            a0, a1 = j * n + i, j * n + (i + 1) % n
            b0, b1 = (j + 1) * n + i, (j + 1) * n + (i + 1) % n
            tris.append((a0, a1, b1))
            tris.append((a0, b1, b0))
    j = n_radial - 1
    for i in range(n):
        tris.append((j * n + i, j * n + (i + 1) % n, center))
    return Mesh(verts, np.array(tris, dtype=int))


def _loop_uniform_refine(mesh):
    v, e = mesh.vertices, mesh.edges
    verts = np.vstack([v, 0.5 * (v[e[:, 0]] + v[e[:, 1]])])
    mid_id = mesh.n_vertices + np.arange(mesh.n_edges)
    tris, parents = [], []
    for ti in range(mesh.n_triangles):
        v0, v1, v2 = mesh.triangles[ti]
        m0, m1, m2 = mid_id[mesh.tri_edges[ti]]
        tris.extend([(v0, m2, m1), (v1, m0, m2), (v2, m1, m0), (m0, m1, m2)])
        parents.extend([ti] * 4)
    return Mesh(verts, np.array(tris, dtype=int), generation=np.repeat(mesh.generation + 1, 4),
                parent_elements=np.array(parents, dtype=int))


def _recursive_bisect(mesh, marked):
    """Newest-vertex bisection with a recursive closure over an edge-owner map."""
    marked = sorted(set(int(m) for m in marked))
    if not marked:
        return Mesh(mesh.vertices.copy(), mesh.triangles.copy(),
                    refinement_edge=mesh.refinement_edge.copy(),
                    generation=mesh.generation.copy(),
                    parent_elements=np.arange(mesh.n_triangles))
    ekey = lambda a, b: (a, b) if a < b else (b, a)
    verts = [tuple(p) for p in mesh.vertices]
    tris = [list(t) for t in mesh.triangles]
    refedge = list(mesh.refinement_edge)
    gen = list(mesh.generation)
    origin = list(range(mesh.n_triangles))
    alive = [True] * mesh.n_triangles
    midpoint = {}
    edge_owner = {}
    for ti, t in enumerate(tris):
        for le in range(3):
            edge_owner.setdefault(ekey(t[(le + 1) % 3], t[(le + 2) % 3]), set()).add(ti)

    def ref_key(ti):
        t, le = tris[ti], refedge[ti]
        return ekey(t[(le + 1) % 3], t[(le + 2) % 3])

    def bisect_one(ti):
        t, le = tris[ti], refedge[ti]
        p, a, b = t[le], t[(le + 1) % 3], t[(le + 2) % 3]
        key = ekey(a, b)
        if key not in midpoint:
            lo, hi = key
            midpoint[key] = len(verts)
            verts.append((0.5 * (verts[lo][0] + verts[hi][0]),
                          0.5 * (verts[lo][1] + verts[hi][1])))
        m = midpoint[key]
        for lle in range(3):
            edge_owner[ekey(t[(lle + 1) % 3], t[(lle + 2) % 3])].discard(ti)
        alive[ti] = False
        for child in ([m, p, a], [m, b, p]):
            ci = len(tris)
            tris.append(child)
            refedge.append(0)
            gen.append(gen[ti] + 1)
            origin.append(origin[ti])
            alive.append(True)
            for lle in range(3):
                edge_owner.setdefault(
                    ekey(child[(lle + 1) % 3], child[(lle + 2) % 3]), set()).add(ci)

    def ensure_bisect(t0):
        stack = [t0]
        while stack:
            ti = stack[-1]
            if not alive[ti]:
                stack.pop()
                continue
            key = ref_key(ti)
            others = [o for o in edge_owner.get(key, ()) if o != ti and alive[o]]
            nb = others[0] if others else None
            if nb is not None and ref_key(nb) != key:
                stack.append(nb)
                continue
            bisect_one(ti)
            if nb is not None:
                bisect_one(nb)
            stack.pop()

    for m in marked:
        if alive[m]:
            ensure_bisect(m)
    keep = [i for i, al in enumerate(alive) if al]
    return Mesh(np.array(verts), np.array([tris[i] for i in keep], dtype=int),
                refinement_edge=np.array([refedge[i] for i in keep], dtype=int),
                generation=np.array([gen[i] for i in keep], dtype=int),
                parent_elements=np.array([origin[i] for i in keep], dtype=int))


def _coarse_meshes():
    return {
        "rectangle": build_builtin_mesh(rectangle_curve(0.1, 1.6, -0.75, 0.75), (4, 3)),
        "d-shape": build_builtin_mesh(d_shape_curve(), (10, 3)),
        "solovev": build_builtin_mesh(solovev_problem("iter").boundary, (8, 2)),
    }


def _assert_same_arrays(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


_SKELETON = ("edges", "edge_tris", "tri_edges", "tri_edge_sign", "edge_normals")
_MESH = ("vertices", "triangles", "refinement_edge", "generation")


class TestStackedSkeletonAndMeshers:
    @pytest.mark.parametrize("name,resolution", [
        ("rectangle", (4, 3)), ("rectangle", (5, 4)), ("d-shape", (10, 3)),
        ("solovev", (8, 2)), ("solovev", (7, 3)), ("solovev", (5, 1)),
    ])
    def test_builtin_meshes_match_loop_reference(self, name, resolution):
        curve = {"rectangle": rectangle_curve(0.1, 1.6, -0.75, 0.75),
                 "d-shape": d_shape_curve(),
                 "solovev": solovev_problem("iter").boundary}[name]
        loop = _loop_rectangle_mesh if name == "rectangle" else _loop_star_mesh
        got, want = build_builtin_mesh(curve, resolution), loop(curve, *resolution)
        _assert_same_arrays(got, want, _MESH + _SKELETON)

    @pytest.mark.parametrize("name", ["rectangle", "d-shape", "solovev"])
    def test_uniform_refinements_match_loop_reference(self, name):
        got = want = _coarse_meshes()[name]
        for _ in range(3):
            got, want = uniform_refine(got), _loop_uniform_refine(want)
            _assert_same_arrays(got, want, _MESH + _SKELETON + ("parent_elements",))

    def test_skeleton_matches_loop_reference(self):
        meshes = list(_coarse_meshes().values()) + [read_msh(MSH_VALID)]
        meshes += [uniform_refine(uniform_refine(uniform_refine(m))) for m in meshes[:3]]
        rng = np.random.default_rng(11)
        for m in list(meshes[:3]):
            for _ in range(3):
                m = bisect_conforming(m, rng.choice(m.n_triangles, m.n_triangles // 4,
                                                    replace=False))
                meshes.append(m)
        for m in meshes:
            _assert_same_arrays(m, _loop_skeleton(m.vertices, m.triangles), _SKELETON)


def _triangle_keys(mesh):
    """Each triangle as its vertex coordinates, sorted."""
    return [tuple(sorted(map(tuple, mesh.vertices[t]))) for t in mesh.triangles]


def _nvb_signature(mesh, source):
    """Per triangle (by coordinates): refinement edge, generation, parent."""
    keys, parent_keys = _triangle_keys(mesh), _triangle_keys(source)
    out = {}
    for ti, key in enumerate(keys):
        le = mesh.refinement_edge[ti]
        t = mesh.triangles[ti]
        ref = tuple(sorted(map(tuple, mesh.vertices[[t[(le + 1) % 3], t[(le + 2) % 3]]])))
        out[key] = (ref, int(mesh.generation[ti]), parent_keys[mesh.parent_elements[ti]])
    assert len(out) == mesh.n_triangles
    return out


class TestBisectionMatchesRecursiveReference:
    @pytest.mark.parametrize("name", ["rectangle", "d-shape", "solovev"])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_markings(self, name, seed):
        rng = np.random.default_rng(seed)
        got = want = _coarse_meshes()[name]
        for _ in range(4):
            frac = rng.uniform(0.02, 0.4)
            marked = rng.choice(got.n_triangles, max(1, int(frac * got.n_triangles)),
                                replace=False)
            index = {key: ti for ti, key in enumerate(_triangle_keys(want))}
            keys = _triangle_keys(got)
            new_got = bisect_conforming(got, marked)
            new_want = _recursive_bisect(want, [index[keys[m]] for m in marked])
            assert _nvb_signature(new_got, got) == _nvb_signature(new_want, want)
            assert np.array_equal(np.sort(new_got.vertices, axis=0),
                                  np.sort(new_want.vertices, axis=0))
            got, want = new_got, new_want

    @pytest.mark.parametrize("name", ["rectangle", "d-shape", "solovev"])
    def test_mark_all_and_none(self, name):
        m = _coarse_meshes()[name]
        for marked in (np.arange(m.n_triangles), np.array([], dtype=int)):
            got, want = bisect_conforming(m, marked), _recursive_bisect(m, marked)
            assert _nvb_signature(got, m) == _nvb_signature(want, m)
