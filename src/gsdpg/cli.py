"""Command-line driver: solve, convergence study and adaptive refinement."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import io as gio
from .amr import AmrParams, MarkingParams, amr_loop, convergence_study
from .assembly import SourceEvaluationError
from .mesh import MeshError, build_builtin_mesh, read_msh
from .problems import get_problem, linf_error
from .solvers import AndersonParams, solve_nonlinear
from .system import GlobalState


def _build_mesh(cfg, problem):
    if cfg["mesh_file"]:
        with open(cfg["mesh_file"]) as fh:
            return read_msh(fh.read())
    res = cfg["resolution"] or problem.default_resolution
    return build_builtin_mesh(problem.boundary, res)


def _anderson(cfg) -> AndersonParams:
    return AndersonParams(m=cfg["anderson_m"], rtol=cfg["rtol"], atol=cfg["atol"],
                          stol=cfg["stol"], max_iters=cfg["max_nonlinear_iters"],
                          line_search=cfg["line_search"])


def _write_solution(cfg, state, U) -> tuple[float, str]:
    """Write the solution VTK; returns (energy residual, path)."""
    total, ind = state.energy_residual(U)
    out = cfg["output_prefix"] + "_solution.vtk"
    gio.write_vtk(out, state.mesh, point_data=gio.vertex_averaged_fields(state, U),
                  cell_data={"energy_residual": ind})
    return total, out


def cmd_solve(cfg) -> int:
    problem = get_problem(cfg["problem"])
    mesh = _build_mesh(cfg, problem)
    state = GlobalState(mesh, problem, cfg["k"], s=cfg["s"], norm=cfg["norm"])
    res = solve_nonlinear(state, _anderson(cfg), inner=cfg["inner_solver"])
    total, out = _write_solution(cfg, state, res.U)
    print(f"problem={problem.name} k={cfg['k']} elements={mesh.n_triangles}")
    print(f"nonlinear iterations: {res.iterations} ({res.message})")
    print(f"energy residual: {total:.6e}")
    if problem.exact_psi is not None:
        e_psi = linf_error(lambda t, rp: state.eval_psi(res.U, t, rp),
                           problem.exact_psi, mesh, cfg["k"], cfg["s"])
        print(f"max error psi: {e_psi:.6e}")
    print(f"wrote {out}")
    return 0 if res.converged else 2


def cmd_converge(cfg) -> int:
    problem = get_problem(cfg["problem"])
    rows = []
    for row in convergence_study(problem, _build_mesh(cfg, problem), cfg["k"],
                                 cfg["levels"], s=cfg["s"], anderson=_anderson(cfg),
                                 norm=cfg["norm"], inner=cfg["inner_solver"]):
        rows.append(row)
        print(f"level {row['level']}: T={row['n_elements']} "
              f"E={row['energy_residual']:.3e} err_psi={row['err_psi']:.3e} "
              f"err_q={row['err_q']:.3e}" + ("" if row["converged"] else " (not converged)"))
    out = cfg["output_prefix"] + "_convergence.csv"
    gio.write_csv(out, list(rows[0]), rows)
    print(f"wrote {out}")
    if not rows[-1]["converged"]:
        print(f"level {rows[-1]['level']}: nonlinear solve did not converge",
              file=sys.stderr)
        return 2
    return 0


def cmd_amr(cfg) -> int:
    problem = get_problem(cfg["problem"])
    mesh = _build_mesh(cfg, problem)
    params = AmrParams(
        marking=MarkingParams(theta_max=cfg["theta_max"],
                              theta_total=cfg["theta_total"],
                              atol=cfg["amr_atol"]),
        max_iters=cfg["max_amr_iters"], max_elements=cfg["max_elements"])
    state, U, report = amr_loop(problem, mesh, cfg["k"], s=cfg["s"],
                                params=params, anderson=_anderson(cfg),
                                norm=cfg["norm"], inner=cfg["inner_solver"])
    for st in report.steps:
        print(f"iter {st.iteration}: T={st.n_elements} E={st.energy_residual:.6e} "
              f"marked={st.n_marked} nonlinear={st.nonlinear_iters}"
              + ("" if st.converged else " (not converged)"))
    print(report.message)
    failed = [st.iteration for st in report.steps if not st.converged]
    if failed:
        print(f"nonlinear solve did not converge at AMR iteration(s) "
              f"{', '.join(map(str, failed))}", file=sys.stderr)
    hist = cfg["output_prefix"] + "_amr_history.csv"
    rows = [asdict(st) for st in report.steps]
    gio.write_csv(hist, list(rows[0]), rows)
    _, out = _write_solution(cfg, state, U)
    print(f"wrote {hist} and {out}")
    return 2 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="gsdpg",
        description="Fixed-boundary Grad-Shafranov solver (ultraweak "
                    "minimal-residual finite elements)")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("converge", cmd_converge),
                     ("amr", cmd_amr)):
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", help="config file (key = value lines)")
        p.add_argument("-o", "--option", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config option")
        p.set_defaults(fn=fn)
    args = ap.parse_args(argv)
    try:
        text = ""
        if args.config:
            with open(args.config) as fh:
                text = fh.read()
        cfg = gio.parse_config(text, args.option)
        return args.fn(cfg)
    except (gio.ConfigError, MeshError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, SourceEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
