"""Adaptive refinement driven by the built-in energy-residual estimator.

The rectangle problem develops sharp solution features near its right
corners.  Because the scheme is a minimal-residual method, the energy
residual decomposes into per-element contributions that serve directly as
refinement indicators: we solve, mark the elements carrying an outsized
share of the residual, bisect them (with conforming closure), transfer the
solution as the next initial guess, and repeat.  The adapted mesh stays
symmetric about the midplane and concentrates elements near the corners.
"""

from dataclasses import asdict

from gsdpg import (
    AmrParams,
    MarkingParams,
    amr_loop,
    build_builtin_mesh,
    get_problem,
)
from gsdpg.io import vertex_averaged_fields, write_csv, write_vtk

problem = get_problem("rect-amr")
mesh = build_builtin_mesh(problem.boundary, resolution=(8, 8))

params = AmrParams(
    marking=MarkingParams(theta_max=0.025, theta_total=0.025, atol=1e-8),
    max_iters=6,
    max_elements=2500,
)
state, U, report = amr_loop(problem, mesh, k=2, params=params)

print(f"{'iter':>4} {'elements':>9} {'energy_residual':>16} "
      f"{'marked':>7} {'nl_iters':>8}")
for s in report.steps:
    print(f"{s.iteration:4d} {s.n_elements:9d} {s.energy_residual:16.4e} "
          f"{s.n_marked:7d} {s.nonlinear_iters:8d}")
print(f"stopped: {report.message or 'estimator below thresholds'}")

rows = [asdict(s) for s in report.steps]
write_csv("amr_history.csv", list(rows[0]), rows)

total, indicators = state.energy_residual(U)
write_vtk("amr_solution.vtk", state.mesh,
          point_data=vertex_averaged_fields(state, U),
          cell_data={"energy_indicator": indicators})
print("wrote amr_history.csv and amr_solution.vtk")

# where did the refinement go?  report the element-density center of mass
cent = state.mesh.vertices[state.mesh.triangles].mean(axis=1)
print(f"element centroid mean: r={cent[:, 0].mean():.3f} "
      f"z={cent[:, 1].mean():+.3f}  (domain center r=0.85, z=0)")
