"""Timing and counting at gsdpg's layer boundaries, from outside the library.

A ``Recorder`` replaces the names gsdpg looks up at call time (module
attributes such as ``gsdpg.amr.solve_nonlinear`` and methods of
``GlobalState`` and ``FixedPointMap``) with wrappers that add up wall time
and calls per layer, and puts the originals back on exit.  Nothing under
``src/`` changes.

Untraced operations install only the base sites: ``GlobalState``
construction, ``solve_nonlinear`` and ``FixedPointMap`` construction, a few
calls per operation, from which the end-to-end set-up and solve times and
the iteration counts are read.  Traced operations add every layer site.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import gsdpg.amr
import gsdpg.io
import gsdpg.mesh
import gsdpg.problems
import gsdpg.solvers
import gsdpg.system

GlobalState = gsdpg.system.GlobalState
FixedPointMap = gsdpg.solvers.FixedPointMap

# (owner, attribute, layer name, observer method name or None)
BASE_SITES = [
    (GlobalState, "__init__", "system.setup", None),
    (gsdpg.solvers, "solve_nonlinear", "solve", "_on_solve"),
    (gsdpg.amr, "solve_nonlinear", "solve", "_on_solve"),
    (FixedPointMap, "__init__", "solvers.fp_map_init", "_on_map"),
]
TRACE_SITES = [
    (gsdpg.system, "TrialSpace", "spaces.build", None),
    (gsdpg.system, "TestSpace", "spaces.build", None),
    (gsdpg.system, "interpolate_boundary", "spaces.build", None),
    (gsdpg.system, "ElementCache", "assembly.element_cache", None),
    (GlobalState, "solve_linearized", "system.solve_linearized", None),
    (GlobalState, "sources", "system.sources", None),
    (GlobalState, "energy_residual", "system.energy_residual", None),
    (GlobalState, "normal_matrix", "system.normal_matrix", None),
    (GlobalState, "fixed_point_rhs", "system.fixed_point_rhs", None),
    (GlobalState, "constrain", "system.constrain", None),
    (FixedPointMap, "__call__", "solvers.fp_eval", None),
    (gsdpg.solvers, "anderson_solve", "solvers.anderson", None),
    (gsdpg.solvers, "krylov_solve", "solvers.krylov", "_on_krylov"),
    (gsdpg.solvers, "build_block_jacobi", "solvers.precond_build", None),
    (gsdpg.amr, "estimate", "amr.estimate", None),
    (gsdpg.amr, "mark", "amr.mark", "_on_mark"),
    (gsdpg.amr, "transfer_solution", "amr.transfer", None),
    (gsdpg.amr, "bisect_conforming", "mesh.refine", None),
    (gsdpg.mesh, "uniform_refine", "mesh.refine", None),
    (gsdpg.problems, "linf_error", "problems.linf_error", None),
    (gsdpg.io, "vertex_averaged_fields", "io.vertex_fields", None),
    (gsdpg.io, "write_vtk", "io.write_vtk", None),
]


class Recorder:
    """Context manager: patch the sites on entry, restore them on exit."""

    def __init__(self, traced: bool):
        self.traced = traced
        self._saved = []
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.maps = []            # FixedPointMap instances, in creation order
        self.outer_iters = []     # SolveResult.iterations per nonlinear solve
        self.solved_dofs = []     # trial DOFs per nonlinear solve
        self.solve_converged = []
        self.krylov_iters = []    # inner GMRES iterations per call
        self.marked = []          # elements marked per AMR step

    def __enter__(self):
        sites = BASE_SITES + (TRACE_SITES if self.traced else [])
        for owner, attr, name, observer in sites:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, observer))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False

    def _wrap(self, fn, name, observer):
        observe = getattr(self, observer) if observer else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.time[name] += perf_counter() - t0
                self.calls[name] += 1
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def add_time(self, name, seconds):
        self.time[name] += seconds
        self.calls[name] += 1

    # -- observers ----------------------------------------------------------

    def _on_solve(self, args, result):
        self.outer_iters.append(result.iterations)
        self.solved_dofs.append(args[0].n_total)
        self.solve_converged.append(bool(result.converged))

    def _on_map(self, args, _):
        self.maps.append(args[0])

    def _on_krylov(self, args, result):
        self.krylov_iters.append(result[1]["iterations"])

    def _on_mark(self, args, result):
        self.marked.append(len(result))

    # -- results ------------------------------------------------------------

    def counts(self) -> dict:
        """Iteration counts that tracing must not change."""
        inner = [n for m in self.maps for n in m.inner_iterations]
        return {
            "outer_iters": sum(self.outer_iters),
            "fp_evals": len(inner),
            "inner_iters": sum(inner),
            "n_solves": len(self.outer_iters),
        }

    def layer_metrics(self, out: dict) -> dict:
        """Per-layer metrics of one traced operation (values, no units)."""
        t, c = self.time, self.calls
        state = out["state"]
        return {
            "mesh.build_s": t["mesh.build"],
            "mesh.refine_s": t["mesh.refine"],
            "mesh.n_triangles": state.mesh.n_triangles,
            "spaces.build_s": t["spaces.build"],
            "assembly.element_cache_s": t["assembly.element_cache"],
            "system.setup_s": t["system.setup"],
            "system.solve_linearized_s": t["system.solve_linearized"],
            "system.solve_linearized_calls": c["system.solve_linearized"],
            "system.sources_s": t["system.sources"],
            "system.energy_residual_s": t["system.energy_residual"],
            "system.normal_matrix_s": t["system.normal_matrix"],
            "system.fixed_point_rhs_s": t["system.fixed_point_rhs"],
            "system.constrain_s": t["system.constrain"],
            "system.n_dofs": state.n_total,
            "system.n_trace_dofs": state.n_total - state.trial.offset_qhat,
            "solvers.outer_iters": out["outer_iters"],
            "solvers.fp_evals": c["solvers.fp_eval"],
            "solvers.fp_eval_s": t["solvers.fp_eval"],
            "solvers.mixing_s": t["solvers.anderson"] - t["solvers.fp_eval"],
            # useful evaluations (one per iteration plus the initial one)
            # over evaluations made; line-search retries lower it
            "solvers.evals_per_iter":
                (out["outer_iters"] + out["n_solves"]) / c["solvers.fp_eval"],
            "solvers.inner_iters": sum(self.krylov_iters),
            "solvers.inner_iters_first":
                self.krylov_iters[0] if self.krylov_iters else 0,
            "solvers.krylov_s": t["solvers.krylov"],
            "solvers.precond_build_s": t["solvers.precond_build"],
            "amr.steps": c["amr.mark"],
            "amr.marked_total": sum(self.marked),
            "amr.estimate_s": t["amr.estimate"],
            "amr.mark_s": t["amr.mark"],
            "amr.transfer_s": t["amr.transfer"],
            "problems.linf_error_s": t["problems.linf_error"],
            "io.vertex_fields_s": t["io.vertex_fields"],
            "io.write_vtk_s": t["io.write_vtk"],
            "io.vtk_bytes": out["vtk_bytes"],
        }
