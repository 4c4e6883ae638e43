"""Conforming triangular meshes in the (r,z) half-plane.

A mesh stores counterclockwise triangles, the edge skeleton with a global
normal convention, and the bookkeeping needed for newest-vertex bisection.
Meshes are immutable after construction; refinement returns a new mesh that
remembers its parent elements so solutions can be transferred.

All element data are stacked arrays.  The skeleton numbers edges by sorting
integer vertex-pair keys; the built-in meshers, red refinement and
newest-vertex bisection build their triangles by index arithmetic.
Bisection closes the marking as a fixed point over edge flags and cuts each
element by one of a few fixed patterns (Funken, Praetorius and Wissgott,
"Efficient implementation of adaptive P1-FEM in Matlab", CMAM 2011).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np


class MeshError(Exception):
    pass


class MshParseError(MeshError):
    pass


@dataclass(frozen=True)
class BoundaryCurve:
    """Closed parametrization s in [0, 2*pi] -> (r, z)."""

    kind: str
    parametrization: Callable[[np.ndarray], np.ndarray]

    def points(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        p = np.asarray(self.parametrization(s), dtype=float)
        if p.shape != s.shape + (2,):
            p = p.reshape(s.shape + (2,))
        return p


def rectangle_curve(r0: float, r1: float, z0: float, z1: float) -> BoundaryCurve:
    corners = np.array([[r0, z0], [r1, z0], [r1, z1], [r0, z1], [r0, z0]])

    def param(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = (s / (2.0 * np.pi)) * 4.0
        seg = np.clip(t.astype(int), 0, 3)
        loc = t - seg
        p = corners[seg] + loc[:, None] * (corners[seg + 1] - corners[seg])
        return p

    return BoundaryCurve("rectangle", param)


def d_shape_curve(eps: float = 0.32, delta: float = 0.33, kappa: float = 1.7) -> BoundaryCurve:
    def param(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        r = 1.0 + eps * np.cos(s + np.arcsin(delta * np.sin(s)))
        z = eps * kappa * np.sin(s)
        return np.column_stack([r, z])

    return BoundaryCurve("d-shape", param)


class Mesh:
    """Conforming triangulation with skeleton, boundary flags and NVB state."""

    def __init__(
        self,
        vertices: np.ndarray,
        triangles: np.ndarray,
        refinement_edge: np.ndarray | None = None,
        generation: np.ndarray | None = None,
        parent_elements: np.ndarray | None = None,
        boundary_lines: Iterable[tuple[int, int]] | None = None,
    ):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be (V, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be (T, 3)")
        if np.any(self.triangles < 0) or np.any(self.triangles >= len(self.vertices)):
            raise MeshError("triangle references a vertex out of range")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertices must be finite")
        if np.any(self.vertices[:, 0] <= 0.0):
            raise MeshError("all vertices must satisfy r > 0")

        v = self.vertices
        t = self.triangles
        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(self.areas <= 0.0):
            bad = int(np.argmin(self.areas))
            raise MeshError(f"triangle {bad} has non-positive signed area {self.areas[bad]:.3e}")

        self._build_skeleton()

        if boundary_lines is not None:
            declared = {tuple(sorted(e)) for e in boundary_lines}
            present = {tuple(e) for e in self.edges[self.boundary_edge_flags]}
            missing = declared - {tuple(e) for e in self.edges}
            if missing:
                raise MeshError(f"boundary line {sorted(missing)[0]} is not a mesh edge")
            extra = declared - present
            if extra:
                raise MeshError(f"declared boundary edge {sorted(extra)[0]} is interior")

        n_v, n_e, n_t = len(self.vertices), len(self.edges), len(self.triangles)
        if n_v - n_e + n_t != 1:
            raise MeshError(
                f"Euler relation violated: {n_v} - {n_e} + {n_t} = {n_v - n_e + n_t} != 1"
            )

        if refinement_edge is None:
            refinement_edge = self._longest_edge_seed()
        self.refinement_edge = np.ascontiguousarray(refinement_edge, dtype=int)
        if generation is None:
            generation = np.zeros(n_t, dtype=int)
        self.generation = np.ascontiguousarray(generation, dtype=int)
        self.parent_elements = (
            None if parent_elements is None else np.ascontiguousarray(parent_elements, dtype=int)
        )
        self._geometry = None

    # -- skeleton -------------------------------------------------------

    def _build_skeleton(self):
        # local edge le joins vertices le+1 and le+2 (it is opposite vertex le);
        # edges are numbered in order of first appearance over (triangle, le)
        t = self.triangles
        a, b = t[:, [1, 2, 0]].ravel(), t[:, [2, 0, 1]].ravel()
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        _, first, inv, count = np.unique(lo * len(self.vertices) + hi, return_index=True,
                                         return_inverse=True, return_counts=True)
        if count.max(initial=0) > 2:
            bad = first[count > 2].min()
            raise MeshError(f"edge {(int(lo[bad]), int(hi[bad]))} "
                            "adjacent to more than 2 triangles")
        # counterclockwise neighbours traverse a shared edge in opposite
        # directions; the same direction means overlapping or folded triangles
        slot = np.arange(len(inv))
        second = slot != first[inv]               # the other triangle's traversal
        fwd = a < b
        same = second & (fwd == fwd[first[inv]])
        if same.any():
            bad = np.argmax(same)
            raise MeshError(f"edge {(int(lo[bad]), int(hi[bad]))} is traversed in the same "
                            "direction by both its triangles (overlapping or folded mesh)")
        order = np.argsort(first)
        edge = np.argsort(order)[inv]
        self.edges = np.column_stack([lo[first[order]], hi[first[order]]])
        self.edge_tris = np.full((len(order), 2), -1)
        self.edge_tris[edge, second.astype(int)] = slot // 3
        self.boundary_edge_flags = self.edge_tris[:, 1] < 0
        self.tri_edges = edge.reshape(t.shape)
        # orientation sign: +1 for the smaller-index adjacent triangle
        self.tri_edge_sign = np.where(
            self.edge_tris[:, 0][self.tri_edges] == np.arange(len(t))[:, None], 1, -1
        )
        # global normal = outward normal of the first adjacent triangle
        v = self.vertices
        tang = v[self.edges[:, 1]] - v[self.edges[:, 0]]
        self.edge_lengths = np.hypot(tang[:, 0], tang[:, 1])
        normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / self.edge_lengths[:, None]
        # fix sign so it is outward for edge_tris[:, 0]
        centroids = v[t].mean(axis=1)
        mid = 0.5 * (v[self.edges[:, 0]] + v[self.edges[:, 1]])
        out = mid - centroids[self.edge_tris[:, 0]]
        flip = np.sum(normal * out, axis=1) < 0
        normal[flip] *= -1.0
        self.edge_normals = normal

    def _longest_edge_seed(self) -> np.ndarray:
        # refinement edge = longest local edge (local edge i is opposite vertex i)
        lengths = self.edge_lengths[self.tri_edges]
        return np.argmax(lengths, axis=1)

    # -- geometry -------------------------------------------------------

    @property
    def geometry(self):
        """Affine maps per triangle: jac (T,2,2), inv_jac_T (T,2,2), det (T,)."""
        if self._geometry is None:
            v = self.vertices
            t = self.triangles
            jac = np.stack([v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]], axis=-1)
            det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            inv = np.empty_like(jac)
            inv[:, 0, 0] = jac[:, 1, 1]
            inv[:, 1, 1] = jac[:, 0, 0]
            inv[:, 0, 1] = -jac[:, 0, 1]
            inv[:, 1, 0] = -jac[:, 1, 0]
            inv /= det[:, None, None]
            inv_T = np.swapaxes(inv, 1, 2)
            self._geometry = (jac, inv_T, det)
        return self._geometry

    def map_to_physical(self, tri, ref_points: np.ndarray) -> np.ndarray:
        """Physical images (n, 2) of reference points under triangle ``tri``.

        ``tri`` may also be an index array of m triangles; the result is then
        stacked (m, n, 2), the same reference points mapped by each.
        """
        jac, _, _ = self.geometry
        p0 = self.vertices[self.triangles[tri, 0]]
        return p0[..., None, :] + np.asarray(ref_points) @ np.swapaxes(jac[tri], -1, -2)

    def map_to_reference(self, tri, phys_points: np.ndarray) -> np.ndarray:
        """Inverse of ``map_to_physical``; for an index array ``tri`` of m
        triangles, ``phys_points`` is (m, n, 2), one point set per triangle."""
        jac, _, _ = self.geometry
        p0 = self.vertices[self.triangles[tri, 0]]
        rel = np.swapaxes(np.asarray(phys_points) - p0[..., None, :], -1, -2)
        return np.swapaxes(np.linalg.solve(jac[tri], rel), -1, -2)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def total_area(self) -> float:
        return float(self.areas.sum())


# -- MSH reader ---------------------------------------------------------


def read_msh(text: str | bytes) -> Mesh:
    """Parse a Gmsh MSH ASCII v2.2 stream into a Mesh.

    The stream is split into ``$Name ... $EndName`` sections, ``$MeshFormat``
    first; unknown sections are skipped, and the counts that open ``$Nodes``
    and ``$Elements`` must match their entries.  Only 2-node lines (boundary
    markers) and 3-node triangles are used; the third node coordinate is
    ignored.  Nodes that no triangle references (Gmsh writes one per
    geometry point) are dropped and the rest keep their node-table order.
    Errors carry the offending 1-based line number.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    lines = text.splitlines()
    sections = _msh_sections(lines)
    head, entries = sections["MeshFormat"]
    no, ln = entries[0] if entries else (head, "")
    parts = ln.split()
    if not parts or not parts[0].startswith("2.2"):
        raise MshParseError(f"line {no}: unsupported MSH version {parts[0] if parts else '?'}"
                            " (only ASCII 2.2 is supported)")
    if len(parts) >= 2 and parts[1] != "0":
        raise MshParseError(f"line {no}: binary MSH files are not supported")
    if len(entries) > 1:
        raise MshParseError(f"line {entries[1][0]}: expected $EndMeshFormat")
    for name in ("Nodes", "Elements"):
        if name not in sections:
            raise MshParseError(f"line {len(lines) + 1}: no ${name} section")
    node_ids, coords, node_lines = _msh_nodes(_msh_counted(sections, "Nodes", "node"))
    blines, tris = _msh_elements(_msh_counted(sections, "Elements", "element"), node_ids)

    if not tris:
        raise MshParseError(f"line {sections['Elements'][0]}: no triangles found in file")
    t = np.array([e for _, e in tris], dtype=int)
    used = np.zeros(len(coords), dtype=bool)
    used[t] = True
    bl = np.array([e for _, e in blines], dtype=int).reshape(-1, 2)
    orphan = np.nonzero(~used[bl].all(axis=1))[0]
    if len(orphan):
        raise MshParseError(
            f"line {blines[orphan[0]][0]}: line element uses a node that no triangle references"
        )
    xy = np.array(coords)
    nonpositive = used & (xy[:, 0] <= 0.0)
    if nonpositive.any():
        i = np.argmax(nonpositive)
        raise MshParseError(f"line {node_lines[i]}: node has r = {xy[i, 0]} <= 0")
    new_id = np.cumsum(used) - 1
    verts = xy[used]
    t = new_id[t]
    d1 = verts[t[:, 1]] - verts[t[:, 0]]
    d2 = verts[t[:, 2]] - verts[t[:, 0]]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    bad = np.nonzero(area2 <= 0.0)[0]
    if len(bad):
        raise MshParseError(f"line {tris[bad[0]][0]}: triangle has zero or negative area")
    return Mesh(verts, t, boundary_lines=new_id[bl].tolist())


def _msh_sections(lines: list[str]) -> dict:
    """{name: (header line, [(line, text), ...])} for each section; the
    entries are the section's non-blank lines, numbered from 1."""
    sections, name = {}, None
    for no, raw in enumerate(lines, start=1):
        ln = raw.strip()
        if not ln:
            continue
        if name is None:
            if not sections and ln != "$MeshFormat":
                raise MshParseError(f"line {no}: expected $MeshFormat, got {ln!r}")
            if not ln.startswith("$") or ln.startswith("$End"):
                raise MshParseError(f"line {no}: {ln!r} outside a $Section ... $EndSection block")
            name = ln[1:]
            if name in sections and name in ("MeshFormat", "Nodes", "Elements"):
                raise MshParseError(f"line {no}: repeated section {ln}")
            sections[name] = (no, [])
        elif ln == "$End" + name:
            name = None
        else:
            sections[name][1].append((no, ln))
    if name is not None:
        raise MshParseError(f"line {sections[name][0]}: unterminated section ${name}")
    if not sections:
        raise MshParseError(f"line {len(lines) + 1}: expected $MeshFormat, got end of file")
    return sections


def _msh_counted(sections: dict, name: str, what: str) -> list:
    """The entries of a section that opens with their count."""
    head, entries = sections[name]
    no, ln = entries[0] if entries else (head, "")
    try:
        n = int(ln)
    except ValueError:
        raise MshParseError(f"line {no}: malformed {what} count {ln!r}")
    if n != len(entries) - 1:
        raise MshParseError(f"line {no}: ${name} declares {n} {what}s, found {len(entries) - 1}")
    return entries[1:]


def _msh_nodes(entries):
    """Node id -> table row, the (r, z) table and each row's line."""
    node_ids, coords, node_lines = {}, [], []
    for no, ln in entries:
        parts = ln.split()
        try:
            nid, r, z = int(parts[0]), float(parts[1]), float(parts[2])
        except (IndexError, ValueError):
            raise MshParseError(f"line {no}: malformed node line {ln!r}")
        if not (math.isfinite(r) and math.isfinite(z)):
            raise MshParseError(f"line {no}: node {nid} has non-finite coordinates")
        if nid in node_ids:
            raise MshParseError(f"line {no}: repeated node id {nid}")
        node_ids[nid] = len(coords)
        coords.append((r, z))
        node_lines.append(no)
    return node_ids, coords, node_lines


def _msh_elements(entries, node_ids):
    """The line elements and the triangles, each as (line, node table rows);
    other element types (points, quads, ...) are skipped."""
    kinds = {1: ("line", 2), 2: ("triangle", 3)}  # Gmsh type: name, nodes
    elements = {1: [], 2: []}
    for no, ln in entries:
        parts = ln.split()
        try:
            etype, n_tags = int(parts[1]), int(parts[2])
            nodes = [int(x) for x in parts[3 + n_tags:]]
        except (IndexError, ValueError):
            raise MshParseError(f"line {no}: malformed element line {ln!r}")
        if etype not in kinds:
            continue
        kind, n_nodes = kinds[etype]
        if len(nodes) != n_nodes:
            raise MshParseError(f"line {no}: {kind} element needs {n_nodes} nodes")
        try:
            elements[etype].append((no, tuple(node_ids[n] for n in nodes)))
        except KeyError as exc:
            raise MshParseError(f"line {no}: element references unknown node {exc.args[0]}")
    return elements[1], elements[2]


# -- built-in meshers ---------------------------------------------------


def build_builtin_mesh(curve: BoundaryCurve, resolution: tuple[int, int]) -> Mesh:
    """Mesh the interior of a boundary curve.

    Rectangles get a structured grid with 2*nx*ny triangles whose diagonal
    pattern is mirror-symmetric about the grid midline; star-shaped curves
    get rings of scaled boundary copies triangulated toward the centroid.
    """
    na, nb = resolution
    if na < 1 or nb < 1:
        raise MeshError(f"degenerate resolution {resolution}")
    if curve.kind == "rectangle":
        return _rectangle_mesh(curve, na, nb)
    return _star_mesh(curve, na, nb)


def _rectangle_mesh(curve: BoundaryCurve, nx: int, ny: int) -> Mesh:
    s = np.linspace(0.0, 2.0 * np.pi, 5)[:4]
    corners = curve.points(s)
    r0, z0 = corners.min(axis=0)
    r1, z1 = corners.max(axis=0)
    rs = np.linspace(r0, r1, nx + 1)
    zs = np.linspace(z0, z1, ny + 1)
    verts = np.column_stack([np.tile(rs, ny + 1), np.repeat(zs, nx + 1)])
    j, i = np.divmod(np.arange(nx * ny), nx)
    c00 = j * (nx + 1) + i
    quad = np.column_stack([c00, c00 + 1, c00 + nx + 1, c00 + nx + 2])  # c00 c10 c01 c11
    # the diagonal is mirrored above the midline to keep the mesh symmetric
    lower = zs[:-1] + zs[1:] <= 2.0 * (z0 + z1) / 2.0 + 1e-15
    tris = np.where(lower[j, None, None], quad[:, [[0, 1, 3], [0, 3, 2]]],
                    quad[:, [[0, 1, 2], [1, 3, 2]]])
    return Mesh(verts, tris.reshape(-1, 3))


def _star_mesh(curve: BoundaryCurve, n_angular: int, n_radial: int) -> Mesh:
    if n_angular < 3:
        raise MeshError("star-shaped mesh needs n_angular >= 3")
    s = np.linspace(0.0, 2.0 * np.pi, n_angular, endpoint=False)
    bd = curve.points(s)
    # enforce counterclockwise ordering
    area2 = np.sum(bd[:, 0] * np.roll(bd[:, 1], -1) - np.roll(bd[:, 0], -1) * bd[:, 1])
    if area2 < 0:
        bd = bd[::-1]
    centroid = _polygon_centroid(bd)
    verts = [bd]
    for j in range(1, n_radial):
        f = 1.0 - j / n_radial
        verts.append(centroid + f * (bd - centroid))
    verts = np.vstack(verts + [centroid[None, :]])
    # ring j holds vertices j*n .. j*n+n-1; the centroid is the last vertex
    n = n_angular
    ring = n * np.arange(n_radial)[:, None]
    a0, a1 = ring + np.arange(n), ring + (np.arange(n) + 1) % n
    band = np.stack([a0, a1, a1 + n, a0, a1 + n, a0 + n], axis=-1)[:-1]
    cap = np.column_stack([a0[-1], a1[-1], np.full(n, len(verts) - 1)])
    return Mesh(verts, np.vstack([band.reshape(-1, 3), cap]))


def _polygon_centroid(p: np.ndarray) -> np.ndarray:
    q = np.roll(p, -1, axis=0)
    cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
    a = cross.sum() / 2.0
    c = ((p + q) * cross[:, None]).sum(axis=0) / (6.0 * a)
    return c


# -- refinement ---------------------------------------------------------


def uniform_refine(mesh: Mesh) -> Mesh:
    """Red refinement: split every triangle into 4 via edge midpoints.

    The children of triangle t are 4t .. 4t+3: one at each vertex, in
    vertex order, then the middle one.
    """
    v, e = mesh.vertices, mesh.edges
    verts = np.vstack([v, 0.5 * (v[e[:, 0]] + v[e[:, 1]])])
    # columns v0 v1 v2 m0 m1 m2, with m_i the midpoint of the edge opposite v_i
    corners = np.hstack([mesh.triangles, mesh.n_vertices + mesh.tri_edges])
    tris = corners[:, [[0, 5, 4], [1, 3, 5], [2, 4, 3], [3, 4, 5]]].reshape(-1, 3)
    return Mesh(verts, tris, generation=np.repeat(mesh.generation + 1, 4),
                parent_elements=np.repeat(np.arange(mesh.n_triangles), 4))


# Newest-vertex bisection patterns.  With an element rotated to (p, a, b),
# ab its refinement edge, m, m_bp and m_pa the midpoints of ab, bp and pa,
# the candidate children are, by column of [t0 t1 t2 p a b m m_bp m_pa]:
# the element itself; its child [m, p, a] or that child's children
# [m_pa, m, p], [m_pa, a, m]; its child [m, b, p] or that child's children
# [m_bp, m, b], [m_bp, p, m].  A child's refinement edge is opposite its
# newest vertex (local edge 0).
_NVB_ROWS = np.array([[0, 1, 2], [6, 3, 4], [8, 6, 3], [8, 4, 6],
                      [6, 5, 3], [7, 6, 5], [7, 3, 6]])
_NVB_DEPTH = np.array([0, 1, 2, 2, 1, 2, 2])


def bisect_conforming(mesh: Mesh, marked) -> Mesh:
    """Newest-vertex bisection of the ``marked`` triangles, closed to conformity.

    Every marked triangle is split at least once.  The closure is a fixed
    point over edges: a triangle with a cut edge cuts its refinement edge.
    Each triangle is then kept, bisected once, or bisected and one or both
    children bisected again, by which of its edges are cut.

    Output numbering: children are grouped by parent in parent order; the
    vertices of ``mesh`` come first, then one midpoint per cut edge in edge
    order.  Callers may rely only on the geometry, ``refinement_edge``,
    ``generation`` and ``parent_elements`` (each child's triangle in
    ``mesh``), not on the numbering itself.
    """
    marked = np.array(list(marked))
    if marked.size and not np.issubdtype(marked.dtype, np.integer):
        raise MeshError(f"marked elements must be integer indices, not {marked.dtype}")
    if np.any((marked < 0) | (marked >= mesh.n_triangles)):
        raise MeshError("marked set contains an invalid triangle index")
    if not marked.size:
        return Mesh(mesh.vertices.copy(), mesh.triangles.copy(),
                    refinement_edge=mesh.refinement_edge.copy(),
                    generation=mesh.generation.copy(),
                    parent_elements=np.arange(mesh.n_triangles))

    # rotate every element to (p, a, b); its edges are then (ab, bp, pa)
    rot = (mesh.refinement_edge[:, None] + np.arange(3)) % 3
    pab = np.take_along_axis(mesh.triangles, rot, axis=1)
    edges = np.take_along_axis(mesh.tri_edges, rot, axis=1)
    ref = edges[:, 0]
    cut = np.zeros(mesh.n_edges, dtype=bool)
    cut[ref[marked]] = True
    while True:  # flags are only added, so this ends within n_edges rounds
        need = cut[edges].any(axis=1) & ~cut[ref]
        if not need.any():
            break
        cut[ref[need]] = True

    v, e = mesh.vertices, mesh.edges[cut]
    verts = np.vstack([v, 0.5 * (v[e[:, 0]] + v[e[:, 1]])])
    mid = mesh.n_vertices + np.cumsum(cut) - 1
    corners = np.hstack([mesh.triangles, pab, mid[edges]])
    c_ab, c_bp, c_pa = cut[edges].T
    keep = np.column_stack([~c_ab, c_ab & ~c_pa, c_pa, c_pa, c_ab & ~c_bp, c_bp, c_bp])
    out = Mesh(
        verts,
        corners[:, _NVB_ROWS][keep],
        refinement_edge=np.where(_NVB_DEPTH == 0, mesh.refinement_edge[:, None], 0)[keep],
        generation=(mesh.generation[:, None] + _NVB_DEPTH)[keep],
        parent_elements=np.nonzero(keep)[0],
    )
    rel = abs(out.total_area() - mesh.total_area()) / mesh.total_area()
    if rel > 1e-12:
        raise MeshError(f"bisection lost area (relative {rel:.2e})")
    return out
