"""Residual-driven adaptive mesh refinement.

The built-in energy residual of the minimal-residual scheme serves as the
error estimator: elements are marked by a three-way threshold (absolute
floor, fraction of the largest indicator, fraction of the mean-scaled total),
bisected with conforming closure, and the previous solution is transferred
to the new mesh as the next initial iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh, bisect_conforming
from .solvers import AndersonParams, solve_nonlinear
from .spaces import _REF_VERTS
from .system import GlobalState


@dataclass
class MarkingParams:
    theta_max: float = 0.025
    theta_total: float = 0.025
    atol: float = 1e-12


@dataclass
class AmrParams:
    marking: MarkingParams = field(default_factory=MarkingParams)
    max_iters: int = 10
    max_elements: int = 200_000


@dataclass
class AmrStep:
    iteration: int
    n_elements: int
    energy_residual: float
    n_marked: int
    nonlinear_iters: int
    converged: bool


@dataclass
class AmrReport:
    steps: list = field(default_factory=list)
    converged: bool = False
    message: str = ""


def estimate(state: GlobalState, U: np.ndarray):
    """(E_total, per-element indicators E_K) from the energy residual."""
    return state.energy_residual(U)


def mark(indicators: np.ndarray, total: float, params: MarkingParams | None = None):
    """Indices of elements exceeding all three marking thresholds."""
    p = params or MarkingParams()
    ind = np.asarray(indicators, dtype=float)
    n = len(ind)
    if n == 0:
        return np.array([], dtype=int)
    cut = np.maximum.reduce([
        np.full(n, p.atol),
        np.full(n, p.theta_max * ind.max()),
        np.full(n, p.theta_total * total / np.sqrt(n)),
    ])
    return np.nonzero(ind > cut)[0]


def transfer_solution(old_state: GlobalState, U_old: np.ndarray,
                      new_state: GlobalState) -> np.ndarray:
    """Restrict a solution to a refined mesh as an initial iterate.

    Interior fields are L2-projected element by element onto each child
    (exact for nested polynomial restriction); traces are re-interpolated
    from the transferred interior fields; boundary values come from the
    Dirichlet datum.  Requires new_state.mesh.parent_elements to point into
    old_state.mesh.
    """
    new_mesh: Mesh = new_state.mesh
    if new_mesh.parent_elements is None:
        raise ValueError("target mesh does not record parent elements")
    if new_mesh.parent_elements.max() >= old_state.mesh.n_triangles:
        raise ValueError("parent elements do not reference the source mesh")
    if old_state.trial.k != new_state.trial.k:
        raise ValueError("solution transfer requires matching polynomial degree")

    tr_new = new_state.trial
    parents = new_mesh.parent_elements
    # parent reference coordinates of every child quadrature point, and the
    # parent's fields there, with the basis evaluated once on all points
    ref_old = old_state.mesh.map_to_reference(parents, new_state.cache.pts)
    vals, _ = old_state.trial.q_basis.eval(ref_old.reshape(-1, 2))
    vals = vals.reshape(*ref_old.shape[:2], -1)                 # (T, nq, nk)
    q_old, psi_old = old_state.interior_coeffs(U_old)
    psi_q = np.einsum("tqj,tj->tq", vals, psi_old[parents])
    q_q = np.einsum("tqj,tcj->tqc", vals, q_old[parents])
    # the modal basis is orthonormal on the reference triangle, so the
    # projection is a plain weighted moment; the affine scaling cancels
    proj = new_state.cache.uv * new_state.cache.vol_rule.weights[:, None]
    U_new = np.zeros(new_state.n_total)
    U_new[tr_new.offset_q:tr_new.offset_psi] = np.einsum("tqc,qj->tcj", q_q, proj).ravel()
    U_new[tr_new.offset_psi:tr_new.offset_qhat] = (psi_q @ proj).ravel()

    _traces_from_fields(new_state, U_new)
    return new_state.apply_boundary(U_new)


def _traces_from_fields(state: GlobalState, U: np.ndarray) -> None:
    """Fill qhat_n and psihat by sampling the interior fields on edges.

    Each edge samples its first adjacent element; a vertex shared by several
    edges takes its psihat value from the last of them in edge order.
    """
    mesh = state.mesh
    tr = state.trial
    E, V = mesh.n_edges, mesh.n_vertices
    t0 = mesh.edge_tris[:, 0]
    tv = mesh.triangles[t0]
    a = _REF_VERTS[np.argmax(tv == mesh.edges[:, :1], axis=1)]
    d = _REF_VERTS[np.argmax(tv == mesh.edges[:, 1:], axis=1)] - a
    q_c, psi_c = state.interior_coeffs(U)

    def basis_at(nodes):  # (E, len(nodes), nk): trial basis at edge nodes
        ref = a[:, None, :] + nodes[:, None] * d[:, None, :]
        vals, _ = tr.q_basis.eval(ref.reshape(-1, 2))
        return vals.reshape(E, len(nodes), tr.nk)

    qv = np.einsum("ejn,ecn->ejc", basis_at(tr.qhat_basis.nodes), q_c[t0])
    U[tr.offset_qhat:tr.offset_psihat] = np.einsum(
        "ejc,ec->ej", qv, mesh.edge_normals).ravel()
    pv = np.einsum("ejn,en->ej", basis_at(tr.psihat_basis.nodes), psi_c[t0])
    U[tr.offset_psihat + V:] = pv[:, 1:-1].ravel()
    ends = mesh.edges.ravel()
    verts, first_rev = np.unique(ends[::-1], return_index=True)
    U[tr.offset_psihat + verts] = pv[:, [0, -1]].ravel()[len(ends) - 1 - first_rev]


def amr_loop(problem, mesh: Mesh, k: int, s: int = 2,
             params: AmrParams | None = None,
             anderson: AndersonParams | None = None,
             norm: str = "standard"):
    """Solve / estimate / mark / refine until nothing is marked or a budget
    is hit.  Returns (final_state, final_U, AmrReport); ``ValueError`` if
    the budget allows no solve at all (``max_iters < 1``)."""
    p = params or AmrParams()
    if p.max_iters < 1:
        raise ValueError(f"AMR iteration budget max_iters must be >= 1, got {p.max_iters}")
    report = AmrReport()
    state = GlobalState(mesh, problem, k, s=s, norm=norm)
    U0 = U = None
    for it in range(p.max_iters):
        res = solve_nonlinear(state, anderson, U0=U0)
        U = res.U
        total, ind = estimate(state, U)
        marked = mark(ind, total, p.marking)
        report.steps.append(AmrStep(it, state.mesh.n_triangles, total,
                                    len(marked), res.iterations, res.converged))
        if len(marked) == 0:
            report.converged = True
            report.message = "no elements above marking thresholds"
            return state, U, report
        if state.mesh.n_triangles >= p.max_elements:
            report.message = "element budget exhausted"
            return state, U, report
        if it == p.max_iters - 1:
            break
        new_mesh = bisect_conforming(state.mesh, marked)
        new_state = GlobalState(new_mesh, problem, k, s=s, norm=norm)
        U0 = transfer_solution(state, U, new_state)
        state = new_state
    report.message = "max AMR iterations reached"
    return state, U, report
