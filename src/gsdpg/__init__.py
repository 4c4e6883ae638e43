"""Fixed-boundary Grad-Shafranov solver using an ultraweak minimal-residual
finite-element discretization with Anderson-accelerated Picard iteration and
residual-driven adaptive refinement."""

from .amr import AmrParams, MarkingParams, amr_loop, convergence_study
from .krylov import KrylovParams, krylov_solve
from .mesh import (
    BoundaryCurve,
    Mesh,
    MeshError,
    MshParseError,
    build_builtin_mesh,
    read_msh,
    uniform_refine,
)
from .problems import ProblemSpec, get_problem, linf_error
from .solvers import AndersonParams, SolveResult, build_block_jacobi, solve_nonlinear
from .system import GlobalState

__version__ = "0.1.0"

__all__ = [
    "AmrParams", "AndersonParams", "BoundaryCurve", "GlobalState", "KrylovParams",
    "MarkingParams", "Mesh", "MeshError", "MshParseError", "ProblemSpec",
    "SolveResult", "amr_loop", "build_block_jacobi", "build_builtin_mesh",
    "convergence_study", "get_problem", "krylov_solve", "linf_error", "read_msh",
    "solve_nonlinear", "uniform_refine",
]
