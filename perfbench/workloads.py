"""Workload definitions, seeded inputs, one timed operation and its checks.

An operation is what a user of ``gsdpg solve`` or ``gsdpg amr`` gets for one
input mesh: build the mesh, construct ``GlobalState``, solve (or run the AMR
loop), compute the energy residual, compute errors where an exact solution
exists, and write the vertex-averaged fields to a VTK file.

Every call into gsdpg goes through the module attribute (``gsdpg.system.
GlobalState``, ``gsdpg.solvers.solve_nonlinear``, ...) so that the patches
installed by ``tracing.Recorder`` see it.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
from pathlib import Path
from time import perf_counter

import numpy as np

import gsdpg.amr
import gsdpg.io
import gsdpg.mesh
import gsdpg.problems
import gsdpg.solvers
import gsdpg.system

# Each interior vertex of the coarse mesh moves by this fraction of its
# shortest incident edge, in a random direction.  Chosen once, for mesh
# quality, for all workloads: it is the largest of 0.02, 0.05, 0.10 and 0.15
# for which the smallest angle of every pool mesh stays within a sixth of the
# unperturbed mesh's smallest angle (18.2 -> 15.4 degrees on the manufactured
# coarse mesh, 45.0 -> 38.3 on the rectangle).
JITTER = 0.05
# Inputs come from a pool of this many jittered meshes per workload, so that
# every input has a recorded reference.  The seed picks the order in which a
# run visits the pool; each timed operation takes the next input, because
# the GMRES iteration count varies by +-10% from one input to the next.
POOL = 64
# The known inner-GMRES stall: rect-amr, k=1, 15% jitter, pool index 0.
STALL_PROBE_JITTER = 0.15

MARKING = dict(theta_max=0.025, theta_total=0.025, atol=1e-8)
# relative band around the recorded manufactured errors
ERROR_BAND = 1e-2
# relative agreement of the GMRES psi with the direct psi: the outer
# (Anderson) tolerance; over the pool the two differ by at most 1.5e-9
PSI_TOL = gsdpg.solvers.AndersonParams().rtol

REFERENCES = Path(__file__).with_name("references.json")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    resolution: tuple
    k: int
    inner: str = "direct"
    uniform_levels: int = 0
    amr_steps: int = 0          # 0: one nonlinear solve, no AMR
    # extra GlobalState constructions on the operation's mesh, outside its
    # wall time: more samples for a set-up time of a few hundredths of a second
    setup_repeats: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("manufactured-k2-direct", "manufactured", (8, 2), 2,
             uniform_levels=3),
    Workload("rect-amr-k2", "rect-amr", (8, 8), 2, amr_steps=6),
    Workload("rect-k1-gmres", "rect-amr", (8, 8), 1, inner="gmres",
             setup_repeats=8),
)}

# small meshes for the self-test: the same code paths in well under a second
SMOKE = {
    "manufactured-k2-direct": dict(uniform_levels=1),
    "rect-amr-k2": dict(resolution=(4, 4), amr_steps=2),
    "rect-k1-gmres": dict(resolution=(4, 4)),
}


def smoke(w: Workload) -> Workload:
    return dataclasses.replace(w, name=w.name + "-smoke", **SMOKE[w.name])


# -- inputs ---------------------------------------------------------------


def jittered_mesh(w: Workload, index: int, fraction: float = JITTER):
    """(vertices, triangles) of the coarse mesh with interior vertices moved.

    Boundary vertices stay fixed, so the domain is unchanged.
    """
    problem = gsdpg.problems.get_problem(w.problem)
    mesh = gsdpg.mesh.build_builtin_mesh(problem.boundary, w.resolution)
    rng = np.random.default_rng(index)
    V = mesh.vertices.copy()
    shortest = np.full(len(V), np.inf)
    np.minimum.at(shortest, mesh.edges[:, 0], mesh.edge_lengths)
    np.minimum.at(shortest, mesh.edges[:, 1], mesh.edge_lengths)
    angle = rng.uniform(0.0, 2.0 * np.pi, len(V))
    offset = fraction * shortest[:, None] * np.column_stack(
        [np.cos(angle), np.sin(angle)])
    offset[mesh.edges[mesh.boundary_edge_flags].ravel()] = 0.0
    return V + offset, mesh.triangles.copy()


def pool_order(seed: int) -> list[int]:
    """Pool indices in the order a run with this seed uses them."""
    return [int(i) for i in np.random.default_rng(seed).permutation(POOL)]


# -- one operation ----------------------------------------------------------


def run_operation(w: Workload, mesh_input, outdir: Path, rec) -> dict:
    """One user operation on one input mesh; returns its outputs and times.

    ``rec`` is the active ``tracing.Recorder``: it times GlobalState
    construction and the nonlinear solves, and keeps the fixed-point maps.
    """
    problem = gsdpg.problems.get_problem(w.problem)
    t0 = perf_counter()
    mesh = gsdpg.mesh.Mesh(*mesh_input)
    rec.add_time("mesh.build", perf_counter() - t0)
    for _ in range(w.uniform_levels):
        mesh = gsdpg.mesh.uniform_refine(mesh)
    out = {}
    if w.amr_steps:
        params = gsdpg.amr.AmrParams(
            marking=gsdpg.amr.MarkingParams(**MARKING), max_iters=w.amr_steps)
        state, U, report = gsdpg.amr.amr_loop(problem, mesh, w.k, params=params)
        out["history"] = [[s.n_elements, s.n_marked, s.nonlinear_iters]
                          for s in report.steps]
    else:
        state = gsdpg.system.GlobalState(mesh, problem, w.k)
        U = gsdpg.solvers.solve_nonlinear(state, inner=w.inner).U
    total, ind = state.energy_residual(U)
    if problem.exact_psi is not None:
        out["err_psi"] = gsdpg.problems.linf_error(
            lambda t, rp: state.eval_psi(U, t, rp), problem.exact_psi,
            state.mesh, w.k)
        out["err_q"] = gsdpg.problems.linf_error(
            lambda t, rp: state.eval_q(U, t, rp), problem.exact_q,
            state.mesh, w.k)
    fields = gsdpg.io.vertex_averaged_fields(state, U)
    text = gsdpg.io.write_vtk(outdir / f"{w.name}_solution.vtk", state.mesh,
                              point_data=fields,
                              cell_data={"energy_residual": ind})
    out["wall_s"] = perf_counter() - t0
    out["energy_residual"] = total
    out["dofs_solved"] = sum(rec.solved_dofs)
    out["converged"] = all(rec.solve_converged)
    out["vtk_bytes"] = len(text)
    out["state"] = state
    out["U"] = U
    out.update(rec.counts())
    return out


# -- checks -----------------------------------------------------------------


class References:
    """Reference outputs per pool input of one workload.

    For ``manufactured`` the recorded L-infinity errors, for AMR workloads
    the recorded AMR history, and for the GMRES workload the psi of a direct
    inner solve on the same mesh, computed on first use (untimed) in a child
    process, so that its memory stays out of the run's peak RSS.
    """

    def __init__(self, w: Workload):
        self.w = w
        self.table = (None if w.inner == "gmres"
                      else json.loads(REFERENCES.read_text())[w.name])
        self._psi = {}

    def __call__(self, index: int, mesh_input):
        if self.table is not None:
            return self.table[str(index)]
        if index not in self._psi:
            self._psi[index] = in_child(direct_psi, self.w, mesh_input)
        return self._psi[index]


def in_child(fn, *args):
    """``fn(*args)`` in a forked child process; waits for it to end."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_main, args=(send, fn, args))
    child.start()
    send.close()
    try:
        ok, value = receive.recv()
    except EOFError:
        ok, value = False, f"child exited with code {child.exitcode}"
    finally:
        child.join()
        receive.close()
    if not ok:
        raise RuntimeError(f"{fn.__name__} failed in child: {value}")
    return value


def _child_main(send, fn, args):
    try:
        send.send((True, fn(*args)))
    except Exception as exc:  # reported by the parent
        send.send((False, repr(exc)))
    finally:
        send.close()


def direct_psi(w: Workload, mesh_input) -> np.ndarray:
    """Interior psi coefficients from a direct inner solve."""
    problem = gsdpg.problems.get_problem(w.problem)
    state = gsdpg.system.GlobalState(gsdpg.mesh.Mesh(*mesh_input), problem, w.k)
    res = gsdpg.solvers.solve_nonlinear(state, inner="direct")
    if not res.converged:
        raise RuntimeError(f"direct reference solve failed: {res.message}")
    return interior_psi(state, res.U)


def interior_psi(state, U) -> np.ndarray:
    return U[state.trial.offset_psi:state.trial.offset_qhat]


def check(w: Workload, out: dict, ref) -> list[str]:
    """Failed output checks of one operation (empty when all pass)."""
    bad = []
    if not out["converged"]:
        bad.append("a nonlinear solve did not converge")
    if not np.isfinite(out["energy_residual"]):
        bad.append("energy residual is not finite")
    if w.amr_steps:
        if out["history"] != ref:
            bad.append(f"AMR history {out['history']} != reference {ref}")
    elif w.inner == "gmres":
        psi = interior_psi(out["state"], out["U"])
        diff = np.abs(psi - ref).max() / np.abs(ref).max()
        if not diff <= PSI_TOL:
            bad.append(f"GMRES psi differs from direct psi by {diff:.2e}")
    else:
        for key in ("err_psi", "err_q"):
            if not abs(out[key] - ref[key]) <= ERROR_BAND * ref[key]:
                bad.append(f"{key} {out[key]:.6e} outside band of {ref[key]:.6e}")
    return bad
