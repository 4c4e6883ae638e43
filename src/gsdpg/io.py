"""Config parsing, CSV study tables and legacy VTK output."""

from __future__ import annotations

import numpy as np

from .mesh import Mesh
from .spaces import _REF_VERTS


class ConfigError(Exception):
    pass


CONFIG_DEFAULTS = {
    "problem": "solovev-iter",
    "k": 2,
    "s": 2,
    "norm": "standard",
    "resolution": None,        # "na,nb" override of the problem default
    "mesh_file": None,         # MSH v2.2 path overriding the built-in mesher
    "levels": 4,               # convergence-study refinements
    "inner_solver": "direct",  # or "gmres"
    "anderson_m": 5,
    "rtol": 1e-8,
    "atol": 1e-10,
    "stol": 1e-12,
    "max_nonlinear_iters": 100,
    "line_search": True,
    "theta_max": 0.025,
    "theta_total": 0.025,
    "amr_atol": 1e-12,
    "max_amr_iters": 10,
    "max_elements": 200_000,
    "output_prefix": "gsdpg",
}


def parse_config(text: str) -> dict:
    """key = value lines; '#' starts a comment; unknown keys are rejected.

    A value takes the type of its key's default; floats must be finite."""
    cfg = dict(CONFIG_DEFAULTS)
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {no}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in cfg:
            raise ConfigError(f"line {no}: unknown option {key!r}")
        default = CONFIG_DEFAULTS[key]
        try:
            if key == "resolution":
                na, nb = (int(x) for x in val.split(","))
                cfg[key] = (na, nb)
            elif isinstance(default, bool):
                if val.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(val)
                cfg[key] = val.lower() in ("true", "1")
            elif isinstance(default, (int, float)):
                cfg[key] = type(default)(val)
                if not np.isfinite(float(val)):  # nan, inf or beyond float range
                    raise ValueError(val)
            else:
                cfg[key] = val
        except ValueError:
            raise ConfigError(f"line {no}: invalid value {val!r} for {key!r}")
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def convergence_csv(rows: list[dict]) -> str:
    """Serialize a convergence study: one row per refinement level.

    Orders between consecutive levels use the mesh-size ratio; degenerate
    ratios (zero or non-finite errors) yield the string 'nan'.
    """
    header = "level,h,n_elements,err_psi,order_psi,err_q,order_q"
    out = [header]
    prev = None
    for row in rows:
        o_psi = o_q = float("nan")
        if prev is not None:
            denom = np.log(prev["h"] / row["h"])
            if denom > 0:
                for name, key in (("o_psi", "err_psi"), ("o_q", "err_q")):
                    e0, e1 = prev[key], row[key]
                    if e0 > 0 and e1 > 0 and np.isfinite(e0) and np.isfinite(e1):
                        val = np.log(e0 / e1) / denom
                    else:
                        val = float("nan")
                    if name == "o_psi":
                        o_psi = val
                    else:
                        o_q = val
        out.append(",".join([
            str(row["level"]), _fmt(row["h"]), str(row["n_elements"]),
            _fmt(row["err_psi"]), _fmt(o_psi), _fmt(row["err_q"]), _fmt(o_q),
        ]))
        prev = row
    return "\n".join(out) + "\n"


def amr_history_csv(steps) -> str:
    header = "iteration,n_elements,energy_residual,n_marked,nonlinear_iters"
    out = [header]
    for s in steps:
        out.append(",".join([
            str(s.iteration), str(s.n_elements), _fmt(s.energy_residual),
            str(s.n_marked), str(s.nonlinear_iters),
        ]))
    return "\n".join(out) + "\n"


def write_vtk(path, mesh: Mesh, point_data: dict | None = None,
              cell_data: dict | None = None, title: str = "gsdpg output"):
    """Legacy ASCII VTK unstructured grid (triangles, cell type 5).

    point_data maps names to (V,) arrays, cell_data to (T,) arrays.  The
    formatting is fixed-width scientific so output is byte-stable.
    """
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID"]
    V, T = mesh.n_vertices, mesh.n_triangles
    lines.append(f"POINTS {V} double")
    for p in mesh.vertices:
        lines.append(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(0.0)}")
    lines.append(f"CELLS {T} {4 * T}")
    for t in mesh.triangles:
        lines.append(f"3 {t[0]} {t[1]} {t[2]}")
    lines.append(f"CELL_TYPES {T}")
    lines.extend(["5"] * T)
    if point_data:
        lines.append(f"POINT_DATA {V}")
        for name, arr in point_data.items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (V,):
                raise ValueError(f"point data {name!r} has shape {arr.shape}, want ({V},)")
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(_fmt(x) for x in arr)
    if cell_data:
        lines.append(f"CELL_DATA {T}")
        for name, arr in cell_data.items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (T,):
                raise ValueError(f"cell data {name!r} has shape {arr.shape}, want ({T},)")
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(_fmt(x) for x in arr)
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return text


def vertex_averaged_fields(state, U) -> dict:
    """psi, q_r, q_z averaged over elements incident to each vertex."""
    mesh = state.mesh
    tri = np.arange(mesh.n_triangles)
    fields = np.concatenate([state.eval_psi(U, tri, _REF_VERTS)[..., None],
                             state.eval_q(U, tri, _REF_VERTS)], axis=2)
    acc = np.zeros((mesh.n_vertices, 3))
    np.add.at(acc, mesh.triangles.ravel(), fields.reshape(-1, 3))
    acc /= np.bincount(mesh.triangles.ravel(), minlength=mesh.n_vertices)[:, None]
    return {"psi": acc[:, 0], "q_r": acc[:, 1], "q_z": acc[:, 2]}
