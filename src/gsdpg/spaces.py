"""Global degree-of-freedom management for trial and broken test spaces.

Trial block ordering is (Q, Psi, Qhat_n, Psihat).  Element-interior fields
(q, psi) are discontinuous modal; the normal trace qhat_n lives on edges with
an orientation sign, and psihat is a continuous piecewise P^{k+1} skeleton
field with one DOF per vertex plus k interior DOFs per edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import EdgeNodalBasis, TriangleModalBasis, triangle_dim
from .mesh import Mesh

_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TrialSpace:
    """Discrete trial space U_h^k on a mesh."""

    def __init__(self, mesh: Mesh, k: int):
        if k < 1:
            raise ValueError("trial space requires k >= 1")
        self.mesh = mesh
        self.k = k
        self.nk = triangle_dim(k)
        self.q_basis = TriangleModalBasis(k)
        self.psi_basis = self.q_basis
        self.qhat_basis = EdgeNodalBasis(k)
        self.psihat_basis = EdgeNodalBasis(k + 1)

        T, E, V = mesh.n_triangles, mesh.n_edges, mesh.n_vertices
        self.n_q = 2 * T * self.nk
        self.n_psi = T * self.nk
        self.n_qhat = E * (k + 1)
        self.n_psihat = V + E * k
        self.offset_q = 0
        self.offset_psi = self.n_q
        self.offset_qhat = self.n_q + self.n_psi
        self.offset_psihat = self.offset_qhat + self.n_qhat
        self.n_total = self.offset_psihat + self.n_psihat

    # -- global index maps ---------------------------------------------

    def q_dofs(self, tri: int) -> np.ndarray:
        """2*nk DOFs: r-component coefficients then z-component."""
        return self.offset_q + 2 * self.nk * tri + np.arange(2 * self.nk)

    def psi_dofs(self, tri: int) -> np.ndarray:
        return self.offset_psi + self.nk * tri + np.arange(self.nk)

    def qhat_edge_dofs(self, edge: int) -> np.ndarray:
        """k+1 nodal DOFs along the global edge parameter (lo -> hi vertex)."""
        return self.offset_qhat + (self.k + 1) * edge + np.arange(self.k + 1)

    def psihat_edge_dofs(self, edge: int) -> np.ndarray:
        """k+2 nodal DOFs ordered with the Lobatto nodes on [0,1]."""
        k = self.k
        lo, hi = self.mesh.edges[edge]
        interior = self.offset_psihat + self.mesh.n_vertices + k * edge + np.arange(k)
        return np.concatenate(
            [[self.offset_psihat + lo], interior, [self.offset_psihat + hi]]
        )

    def element_dofs(self, tri) -> np.ndarray:
        """Local-to-global map for one element's B_K columns.

        Ordering: q (2*nk), psi (nk), then qhat_n per local edge, then psihat
        per local edge.  Shared skeleton DOFs appear once per incident edge.
        For an index array ``tri`` of m elements the maps are stacked (m, n).
        """
        k, nk, m = self.k, self.nk, self.mesh
        t = np.asarray(tri)[..., None]
        e = m.tri_edges[tri]
        qhat = self.offset_qhat + (k + 1) * e[..., None] + np.arange(k + 1)
        lo, hi = np.moveaxis(m.edges[e], -1, 0)
        psihat = np.concatenate([
            self.offset_psihat + lo[..., None],
            self.offset_psihat + m.n_vertices + k * e[..., None] + np.arange(k),
            self.offset_psihat + hi[..., None],
        ], axis=-1)
        return np.concatenate([
            self.offset_q + 2 * nk * t + np.arange(2 * nk),
            self.offset_psi + nk * t + np.arange(nk),
            qhat.reshape(*t.shape[:-1], -1),
            psihat.reshape(*t.shape[:-1], -1),
        ], axis=-1)

    def n_local(self) -> int:
        return 3 * self.nk + 3 * (self.k + 1) + 3 * (self.k + 2)

    def edge_param_geometry(self, tri: int, le: int):
        """(sign, ref_start, ref_dir, length) for the global edge parameter.

        ``sign`` is the orientation sign of this triangle on the edge (its
        outward normal equals sign * global edge normal); ref coordinates map
        the global parameter t in [0,1] to the triangle's reference element.
        """
        m = self.mesh
        e = m.tri_edges[tri, le]
        lo, hi = m.edges[e]
        tv = m.triangles[tri]
        l_lo = int(np.nonzero(tv == lo)[0][0])
        l_hi = int(np.nonzero(tv == hi)[0][0])
        ref0 = _REF_VERTS[l_lo]
        refd = _REF_VERTS[l_hi] - _REF_VERTS[l_lo]
        return int(m.tri_edge_sign[tri, le]), ref0, refd, float(m.edge_lengths[e])

    def boundary_psihat_dofs(self) -> np.ndarray:
        m = self.mesh
        dofs = set()
        for e in np.nonzero(m.boundary_edge_flags)[0]:
            dofs.update(self.psihat_edge_dofs(int(e)).tolist())
        return np.array(sorted(dofs), dtype=int)

    def psihat_node_points(self, edge: int) -> np.ndarray:
        """Physical positions of the psihat Lagrange nodes on an edge."""
        m = self.mesh
        lo, hi = m.edges[edge]
        t = self.psihat_basis.nodes[:, None]
        return m.vertices[lo] + t * (m.vertices[hi] - m.vertices[lo])


class TestSpace:
    """Broken enriched test space V_h^{k,s}, fully element-local."""

    def __init__(self, mesh: Mesh, k: int, s: int):
        if s < 2:
            raise ValueError("test space requires enrichment s >= 2")
        self.mesh = mesh
        self.k = k
        self.s = s
        self.order = k + s
        self.nks = triangle_dim(k + s)
        self.basis = TriangleModalBasis(k + s)
        self.n_element = 3 * self.nks  # phi_r, phi_z, tau
        self.n_total = mesh.n_triangles * self.n_element

    def element_rows(self, tri: int) -> np.ndarray:
        return self.n_element * tri + np.arange(self.n_element)


@dataclass(frozen=True)
class BoundaryData:
    """Prescribed boundary psihat DOFs (indices into the global vector)."""

    dofs: np.ndarray
    values: np.ndarray


def build_trial_space(mesh: Mesh, k: int) -> TrialSpace:
    return TrialSpace(mesh, k)


def build_test_space(mesh: Mesh, k: int, s: int) -> TestSpace:
    return TestSpace(mesh, k, s)


def interpolate_boundary(space: TrialSpace, psi_d) -> BoundaryData:
    """Nodal interpolation of the Dirichlet datum at boundary psihat nodes."""
    m = space.mesh
    values: dict[int, float] = {}
    for e in np.nonzero(m.boundary_edge_flags)[0]:
        dofs = space.psihat_edge_dofs(int(e))
        pts = space.psihat_node_points(int(e))
        vals = np.array([psi_d(p[0], p[1]) for p in pts], dtype=float)
        for d, v in zip(dofs, vals):
            values[int(d)] = float(v)
    dofs = np.array(sorted(values), dtype=int)
    return BoundaryData(dofs, np.array([values[d] for d in dofs]))
