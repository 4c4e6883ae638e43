"""Fixed-boundary Grad-Shafranov solver using an ultraweak minimal-residual
finite-element discretization with Anderson-accelerated Picard iteration and
residual-driven adaptive refinement."""

from .amr import AmrParams, MarkingParams, amr_loop, estimate, mark, transfer_solution
from .basis import EdgeNodalBasis, TriangleModalBasis, edge_rule, triangle_rule
from .mesh import (
    BoundaryCurve,
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
from .problems import ProblemSpec, get_problem, linf_error, solovev_coefficients
from .solvers import (
    AndersonParams,
    FixedPointMap,
    KrylovParams,
    SolveResult,
    anderson_solve,
    build_block_jacobi,
    cubic_line_search,
    krylov_solve,
    solve_nonlinear,
)
from .spaces import TestSpace, TrialSpace
from .system import GlobalState

__version__ = "0.1.0"

__all__ = [
    "AmrParams", "AndersonParams", "BoundaryCurve",
    "FixedPointMap", "GlobalState", "KrylovParams", "MarkingParams", "Mesh",
    "MeshError", "MshParseError", "ProblemSpec", "SolveResult", "TestSpace",
    "TrialSpace", "amr_loop", "anderson_solve", "bisect_conforming",
    "build_block_jacobi", "build_builtin_mesh", "cubic_line_search",
    "d_shape_curve", "estimate", "get_problem", "krylov_solve", "linf_error",
    "mark", "read_msh", "rectangle_curve", "solovev_coefficients", "solve_nonlinear",
    "transfer_solution", "uniform_refine", "EdgeNodalBasis",
    "TriangleModalBasis", "edge_rule", "triangle_rule",
]
