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


def parse_config(text: str, overrides=()) -> dict:
    """key = value lines ('#' starts a comment), then KEY=VALUE overrides,
    which win; unknown keys are rejected.  A value takes the type of its
    key's default; floats must be finite.  Errors name the file line
    (``line N``) or the option (``-o KEY=VALUE``)."""
    cfg = dict(CONFIG_DEFAULTS)
    lines = ((f"line {no}", raw.split("#", 1)[0].strip())
             for no, raw in enumerate(text.splitlines(), start=1))
    items = [(where, ln) for where, ln in lines if ln] + [(f"-o {ov}", ov) for ov in overrides]
    for where, item in items:
        if "=" not in item:
            raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
        key, val = (part.strip() for part in item.split("=", 1))
        if key not in cfg:
            raise ConfigError(f"{where}: unknown option {key!r}")
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
            raise ConfigError(f"{where}: invalid value {val!r} for {key!r}")
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def write_csv(path, columns, rows) -> str:
    """Write a header of ``columns``, then each row's values of those keys:
    integers (and flags) as they are, floats as ``%.17e``.  Returns the text
    written."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in (row[c] for c in columns)))
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return text


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
    for kind, n, data in (("point", V, point_data), ("cell", T, cell_data)):
        if not data:
            continue
        lines.append(f"{kind.upper()}_DATA {n}")
        for name, arr in data.items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{kind} data {name!r} has shape {arr.shape}, want ({n},)")
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
