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
        self.basis = TriangleModalBasis(k)  # both interior fields, q and psi
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
    # Each map takes an element or edge index, or an index array of m of
    # them; the DOFs of each entry lie along the last axis.

    def q_dofs(self, tri) -> np.ndarray:
        """2*nk DOFs: r-component coefficients then z-component."""
        return self.offset_q + 2 * self.nk * np.asarray(tri)[..., None] + np.arange(2 * self.nk)

    def psi_dofs(self, tri) -> np.ndarray:
        return self.offset_psi + self.nk * np.asarray(tri)[..., None] + np.arange(self.nk)

    def qhat_edge_dofs(self, edge) -> np.ndarray:
        """k+1 nodal DOFs along the global edge parameter (lo -> hi vertex)."""
        return self.offset_qhat + (self.k + 1) * np.asarray(edge)[..., None] + np.arange(self.k + 1)

    def psihat_edge_dofs(self, edge) -> np.ndarray:
        """k+2 nodal DOFs ordered with the Lobatto nodes on [0,1]."""
        k, m = self.k, self.mesh
        e = np.asarray(edge)[..., None]
        lo, hi = np.moveaxis(m.edges[e], -1, 0)
        return self.offset_psihat + np.concatenate(
            [lo, m.n_vertices + k * e + np.arange(k), hi], axis=-1)

    def element_dofs(self, tri) -> np.ndarray:
        """Local-to-global map of an element's B_K columns, (n_local,) or
        stacked (m, n_local) for an index array.

        Ordering: q (2*nk), psi (nk), then qhat_n per local edge, then psihat
        per local edge.  Shared skeleton DOFs appear once per incident edge.
        """
        t = np.asarray(tri)
        e = self.mesh.tri_edges[t]
        return np.concatenate([
            self.q_dofs(t),
            self.psi_dofs(t),
            self.qhat_edge_dofs(e).reshape(*t.shape, -1),
            self.psihat_edge_dofs(e).reshape(*t.shape, -1),
        ], axis=-1)

    def n_local(self) -> int:
        return 3 * self.nk + 3 * (self.k + 1) + 3 * (self.k + 2)


class TestSpace:
    """Broken enriched test space V_h^{k,s}, fully element-local."""

    def __init__(self, k: int, s: int):
        if s < 2:
            raise ValueError("test space requires enrichment s >= 2")
        self.s = s
        self.nks = triangle_dim(k + s)
        self.basis = TriangleModalBasis(k + s)


@dataclass(frozen=True)
class BoundaryData:
    """Prescribed boundary psihat DOFs (indices into the global vector)."""

    dofs: np.ndarray
    values: np.ndarray


def last_occurrence(dofs, values):
    """Each distinct DOF of ``dofs`` once, sorted, with the entry of
    ``values`` (same shape) at its last occurrence in C order."""
    # np.unique keeps the first occurrence, so reverse to keep the last
    uniq, last = np.unique(np.ravel(dofs)[::-1], return_index=True)
    return uniq, np.ravel(values)[::-1][last]


def interpolate_boundary(space: TrialSpace, psi_d) -> BoundaryData:
    """Nodal interpolation of the Dirichlet datum at boundary psihat nodes.

    ``psi_d(r, z)`` is called once, with the arrays of all boundary nodes.
    A vertex shared by several boundary edges takes the value computed on
    the last of them in edge order.
    """
    m = space.mesh
    be = np.nonzero(m.boundary_edge_flags)[0]
    a, b = m.vertices[m.edges[be, 0]], m.vertices[m.edges[be, 1]]
    pts = a[:, None] + space.psihat_basis.nodes[:, None] * (b - a)[:, None]
    vals = np.broadcast_to(np.asarray(psi_d(pts[..., 0], pts[..., 1]), dtype=float),
                           pts.shape[:-1])
    return BoundaryData(*last_occurrence(space.psihat_edge_dofs(be), vals))
