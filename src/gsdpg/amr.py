"""Residual-driven adaptive mesh refinement, and the uniform-refinement study.

The built-in energy residual of the minimal-residual scheme serves as the
error estimator: elements are marked by a three-way threshold (absolute
floor, fraction of the largest indicator, fraction of the mean-scaled total),
bisected with conforming closure, and the previous solution is transferred
to the new mesh as the next initial iterate.  The uniform study reports the
same residual, and the sup-norm errors where an exact solution is known.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh, bisect_conforming, uniform_refine
from .problems import linf_error
from .solvers import AndersonParams, solve_nonlinear
from .spaces import _REF_VERTS, last_occurrence
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
    cut = np.max([p.atol, p.theta_max * ind.max(), p.theta_total * total / np.sqrt(n)])
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

    # the parent's fields at every child quadrature point; the modal basis is
    # orthonormal on the reference triangle, so the projection is a plain
    # weighted moment and the affine scaling cancels
    parents = new_mesh.parent_elements
    ref_old = old_state.mesh.map_to_reference(parents, new_state.cache.pts)
    proj = new_state.cache.uv * new_state.cache.vol_rule.weights[:, None]
    U_new = np.zeros(new_state.n_total)
    q_new, psi_new = new_state.interior_coeffs(U_new)
    q_new[:] = np.swapaxes(old_state.eval_q(U_old, parents, ref_old), 1, 2) @ proj
    psi_new[:] = old_state.eval_psi(U_old, parents, ref_old) @ proj

    _traces_from_fields(new_state, U_new)
    return new_state.apply_boundary(U_new)


def _traces_from_fields(state: GlobalState, U: np.ndarray) -> None:
    """Fill qhat_n and psihat by sampling the interior fields on edges.

    Each edge samples its first adjacent element; a vertex shared by several
    edges takes its psihat value from the last of them in edge order.
    """
    mesh, tr = state.mesh, state.trial
    edges = np.arange(mesh.n_edges)
    t0 = mesh.edge_tris[:, 0]
    tv = mesh.triangles[t0]
    a = _REF_VERTS[np.argmax(tv == mesh.edges[:, :1], axis=1)]
    d = _REF_VERTS[np.argmax(tv == mesh.edges[:, 1:], axis=1)] - a

    def ref_nodes(basis):  # (E, nodes, 2): the edge nodes in t0's reference frame
        return a[:, None, :] + basis.nodes[:, None] * d[:, None, :]

    q = state.eval_q(U, t0, ref_nodes(tr.qhat_basis))
    U[tr.qhat_edge_dofs(edges)] = np.einsum("ejc,ec->ej", q, mesh.edge_normals)
    dofs, psi = last_occurrence(tr.psihat_edge_dofs(edges),
                                state.eval_psi(U, t0, ref_nodes(tr.psihat_basis)))
    U[dofs] = psi


def amr_loop(problem, mesh: Mesh, k: int, s: int = 2,
             params: AmrParams | None = None,
             anderson: AndersonParams | None = None,
             norm: str = "standard", inner: str = "direct"):
    """Solve (with the ``inner`` solver) / estimate / mark / refine until
    nothing is marked or a budget is hit.  Returns (final_state, final_U,
    AmrReport); ``ValueError`` if the budget allows no solve (``max_iters < 1``)."""
    p = params or AmrParams()
    if p.max_iters < 1:
        raise ValueError(f"AMR iteration budget max_iters must be >= 1, got {p.max_iters}")
    report = AmrReport()
    state = GlobalState(mesh, problem, k, s=s, norm=norm)
    U0 = U = None
    for it in range(p.max_iters):
        res = solve_nonlinear(state, anderson, inner=inner, U0=U0)
        U = res.U
        total, ind = estimate(state, U)
        marked = mark(ind, total, p.marking)
        report.steps.append(AmrStep(it, state.mesh.n_triangles, total,
                                    len(marked), res.iterations, res.converged))
        if len(marked) == 0:
            report.converged = res.converged
            report.message = "no elements above marking thresholds" + (
                "" if res.converged else ", but the last nonlinear solve did not converge")
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


def convergence_study(problem, mesh: Mesh, k: int, levels: int, s: int = 2,
                      anderson: AndersonParams | None = None,
                      norm: str = "standard", inner: str = "direct"):
    """Solve (with the ``inner`` solver, from zero) on ``mesh`` and on
    ``levels - 1`` successive uniform refinements of it, yielding one row
    per level as it finishes: the largest edge ``h``, the element count, the
    energy residual and the sup-norm errors of psi and q (nan without an
    exact solution), each with its order against the previous level, and
    the solve's iterations and convergence.  Stops after the first level
    that does not converge; ``ValueError`` if ``levels < 1``."""
    if levels < 1:
        raise ValueError(f"convergence study needs levels >= 1, got {levels}")
    prev = None
    for level in range(levels):
        if level:
            mesh = uniform_refine(mesh)
        state = GlobalState(mesh, problem, k, s=s, norm=norm)
        res = solve_nonlinear(state, anderson, inner=inner)
        row = {"level": level, "h": float(mesh.edge_lengths.max()),
               "n_elements": mesh.n_triangles,
               "energy_residual": state.energy_residual(res.U)[0]}
        row["order_energy"] = _order(prev, row, "energy_residual")
        for name, exact, field in (("psi", problem.exact_psi, state.eval_psi),
                                   ("q", problem.exact_q, state.eval_q)):
            row[f"err_{name}"] = float("nan") if exact is None else linf_error(
                lambda t, rp: field(res.U, t, rp), exact, mesh, k, s)
            row[f"order_{name}"] = _order(prev, row, f"err_{name}")
        row.update(nonlinear_iters=res.iterations, converged=res.converged)
        yield row
        if not res.converged:
            return
        prev = row


def _order(prev: dict | None, row: dict, key: str) -> float:
    """Observed order of the error ``key`` from level ``prev`` to ``row``,
    nan at the first level and where it is undefined."""
    e0 = np.nan if prev is None else prev[key]
    if 0 < e0 < np.inf and 0 < row[key] < np.inf and prev["h"] > row["h"]:
        return np.log(e0 / row[key]) / np.log(prev["h"] / row["h"])
    return float("nan")
