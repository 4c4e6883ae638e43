"""Test problems: geometry, source splits, exact solutions and error norms.

The governing equation is written as div((1/r) grad psi) = -F(r,z,psi)/r
with psi = psi_D on the boundary.  Sources are split F = F_N(r,z,psi) +
F_L(r,z) so the fixed-point solver can treat the linear part once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import triangle_rule, default_volume_degree
from .mesh import BoundaryCurve, Mesh, d_shape_curve, rectangle_curve


@dataclass(frozen=True)
class SolovevCoeffs:
    d1: float
    d2: float
    d3: float
    eps: float
    kappa: float
    delta: float


@dataclass
class ProblemSpec:
    """A Grad-Shafranov problem: domain, source split and boundary datum.

    The source functions, the boundary datum ``psi_d`` and the exact fields
    are called with numpy arrays of point coordinates and must work
    elementwise; each may return a scalar where its value is constant.
    ``exact_psi(r, z)`` returns an array shaped like ``r``, ``exact_q(r, z)``
    a tuple of two such arrays.
    """

    name: str
    boundary: BoundaryCurve
    f_lin: Callable[[float, float], float]
    f_nl: Callable[[float, float, float], float]
    df_nl: Callable[[float, float, float], float]
    psi_d: Callable[[float, float], float]
    exact_psi: Optional[Callable[[float, float], float]] = None
    exact_q: Optional[Callable[[float, float], tuple]] = None
    default_resolution: tuple = (16, 4)


def solovev_coefficients(eps: float, kappa: float, delta: float) -> SolovevCoeffs:
    """Solve the 3x3 system pinning the plasma cross-section shape.

    The resulting psi vanishes at (1+eps, 0), (1-eps, 0) and
    (1 - delta*eps, kappa*eps).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("inverse aspect ratio must lie in (0, 1)")
    e, k, d = eps, kappa, delta
    A = np.array(
        [
            [1.0, (1 + e) ** 2, (1 + e) ** 4],
            [1.0, (1 - e) ** 2, (1 - e) ** 4],
            [1.0, (1 - d * e) ** 2, (1 - d * e) ** 4 - 4 * (1 - d * e) ** 2 * k**2 * e**2],
        ]
    )
    rhs = -0.125 * np.array([(1 + e) ** 4, (1 - e) ** 4, (1 - d * e) ** 4])
    if abs(np.linalg.det(A)) < 1e-14:
        raise ValueError("singular shape system (degenerate eps/kappa/delta)")
    d1, d2, d3 = np.linalg.solve(A, rhs)
    return SolovevCoeffs(float(d1), float(d2), float(d3), e, k, d)


def solovev_psi(c: SolovevCoeffs):
    def psi(r, z):
        return r**4 / 8.0 + c.d1 + c.d2 * r**2 + c.d3 * (r**4 - 4.0 * r**2 * z**2)

    def grad(r, z):
        pr = r**3 / 2.0 + 2.0 * c.d2 * r + c.d3 * (4.0 * r**3 - 8.0 * r * z**2)
        pz = -8.0 * c.d3 * r**2 * z
        return pr, pz

    return psi, grad


def _bisect(f, a: float, b: float) -> float:
    """Root of ``f`` in [a, b], given f(a) < 0 <= f(b), to 1e-15 * (1 + |x|)."""
    while True:
        m = 0.5 * (a + b)
        if 0.5 * (b - a) <= 1e-15 * (1.0 + abs(m)):
            return m
        if f(m) < 0.0:
            a = m
        else:
            b = m


def solovev_boundary(c: SolovevCoeffs) -> BoundaryCurve:
    """Zero level set of the Solov'ev psi as a star-shaped parametrization."""
    psi, _ = solovev_psi(c)
    # magnetic axis (psi minimum on z=0) as the star center: the positive
    # root of d(psi)/dr(r, 0) = r (r^2 (1/2 + 4 d3) + 2 d2)
    r2 = -4.0 * c.d2 / (1.0 + 8.0 * c.d3)
    if not (1.0 - c.eps) ** 2 < r2 < (1.0 + c.eps) ** 2:
        raise ValueError("Solov'ev psi has no magnetic axis inside the plasma")
    r_axis = math.sqrt(r2)

    def radius(s):
        cs, sn = math.cos(s), math.sin(s)

        def f(t):
            return psi(r_axis + t * cs, t * sn)

        # grow the ray until psi first turns non-negative and bracket from the
        # last negative sample.  psi is even in r, so the ray stops at r = 0:
        # beyond it lies the mirror image of the plasma, where a sample with
        # psi < 0 would move the bracket past the true boundary.
        t_max = 100.0 if cs >= 0.0 else min(100.0, r_axis / -cs)
        t_lo, t_hi = 0.0, min(0.1, t_max)
        while f(t_hi) < 0.0:
            if t_hi >= t_max:
                raise RuntimeError("failed to bracket the plasma boundary")
            t_lo, t_hi = t_hi, min(1.5 * t_hi, t_max)
        return _bisect(f, t_lo, t_hi)

    def param(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty((len(s), 2))
        for i, si in enumerate(s):
            t = radius(float(si))
            out[i] = (r_axis + t * math.cos(si), t * math.sin(si))
        return out

    return BoundaryCurve("solovev", param)


def solovev_problem(kind: str = "iter") -> ProblemSpec:
    """Linear Solov'ev equilibrium with exact polynomial solution."""
    if kind == "iter":
        c = solovev_coefficients(0.32, 1.7, 0.33)
    elif kind == "nstx":
        c = solovev_coefficients(0.78, 2.0, 0.35)
    else:
        raise ValueError(f"unknown Solov'ev configuration {kind!r}")
    psi, grad = solovev_psi(c)

    def q_exact(r, z):
        pr, pz = grad(r, z)
        return -pr / r, -pz / r

    return ProblemSpec(
        name=f"solovev-{kind}",
        boundary=solovev_boundary(c),
        f_lin=lambda r, z: -(r**2),
        f_nl=lambda r, z, p: 0.0,
        df_nl=lambda r, z, p: 0.0,
        psi_d=psi,
        exact_psi=psi,
        exact_q=q_exact,
        default_resolution=(20, 5),
    )


K_R = 1.15 * math.pi
K_Z = 1.15
R_0 = -0.5


def manufactured_problem() -> ProblemSpec:
    """Nonlinear manufactured solution on the ITER-shaped domain."""
    kr, kz, r0 = K_R, K_Z, R_0
    k2 = kr * kr + kz * kz

    def psi(r, z):
        return np.sin(kr * (r + r0)) * np.cos(kz * z)

    def q_exact(r, z):
        pr = kr * np.cos(kr * (r + r0)) * np.cos(kz * z)
        pz = -kz * np.sin(kr * (r + r0)) * np.sin(kz * z)
        return -pr / r, -pz / r

    def f_lin(r, z):
        s = np.sin(kr * (r + r0)) * np.cos(kz * z)
        return kr / r * np.cos(kr * (r + r0)) * np.cos(kz * z) + r * (
            s * s + np.exp(-s)
        )

    def f_nl(r, z, p):
        return k2 * p + r * (-p * p - np.exp(-p))

    def df_nl(r, z, p):
        return k2 + r * (-2.0 * p + np.exp(-p))

    iter_c = solovev_coefficients(0.32, 1.7, 0.33)
    return ProblemSpec(
        name="manufactured",
        boundary=solovev_boundary(iter_c),
        f_lin=f_lin,
        f_nl=f_nl,
        df_nl=df_nl,
        psi_d=psi,
        exact_psi=psi,
        exact_q=q_exact,
        default_resolution=(20, 5),
    )


def dshape_problem() -> ProblemSpec:
    """Nonlinear source on the D-shaped domain, homogeneous boundary."""

    def f_nl(r, z, p):
        return r * r * (0.5 - 0.5 * (1.0 - p * p) ** 2)

    def df_nl(r, z, p):
        return 2.0 * r * r * p * (1.0 - p * p)

    return ProblemSpec(
        name="dshape",
        boundary=d_shape_curve(0.32, 0.33, 1.7),
        f_lin=lambda r, z: 0.5 * r * r,
        f_nl=f_nl,
        df_nl=df_nl,
        psi_d=lambda r, z: 0.0,
        default_resolution=(24, 6),
    )


def rect_amr_problem() -> ProblemSpec:
    """Strongly nonlinear source on a rectangle, psi = 0.25 on the boundary."""
    sigma2 = 0.005
    c1, c2 = 0.8, 0.2

    def f_nl(r, z, p):
        e = np.exp(-p * p / sigma2)
        return 2.0 * r * r * p * (c2 * (1.0 - e) + (c1 + c2 * p * p) * e / sigma2)

    def df_nl(r, z, p):
        e = np.exp(-p * p / sigma2)
        g = c2 * (1.0 - e) + (c1 + c2 * p * p) * e / sigma2
        gp = 2.0 * p * e / sigma2 * (2.0 * c2 - (c1 + c2 * p * p) / sigma2)
        return 2.0 * r * r * (g + p * gp)

    return ProblemSpec(
        name="rect-amr",
        boundary=rectangle_curve(0.1, 1.6, -0.75, 0.75),
        f_lin=lambda r, z: 0.0,
        f_nl=f_nl,
        df_nl=df_nl,
        psi_d=lambda r, z: 0.25,
        default_resolution=(12, 12),
    )


def get_problem(name: str) -> ProblemSpec:
    factories = {
        "solovev-iter": lambda: solovev_problem("iter"),
        "solovev-nstx": lambda: solovev_problem("nstx"),
        "manufactured": manufactured_problem,
        "dshape": dshape_problem,
        "rect-amr": rect_amr_problem,
    }
    if name not in factories:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(factories)}")
    return factories[name]()


def linf_error(field_h, exact_field, mesh: Mesh, k: int, s: int = 2) -> float:
    """Max-over-elements sup-norm error on a fixed per-element sample lattice.

    ``field_h(tri, ref_points)`` is called once, with the index array ``tri``
    of all m elements and the n reference sample points, and returns the
    discrete values as an (m, n) array for a scalar field or (m, n, 2) for a
    vector field.  ``exact_field(r, z)`` is called once with the (m, n)
    arrays of the physical sample points and returns the exact scalar or
    component tuple.  Vector fields reduce by componentwise max.  Samples
    are the default volume quadrature points plus the 3 vertices.
    """
    rule = triangle_rule(default_volume_degree(k, s))
    ref = np.vstack([rule.points, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    phys = mesh.map_to_physical(np.arange(mesh.n_triangles), ref)
    r, z = phys[..., 0], phys[..., 1]
    ex = exact_field(r, z)
    ex = np.stack([np.broadcast_to(np.asarray(c, dtype=float), r.shape)
                   for c in (ex if isinstance(ex, (tuple, list)) else (ex,))],
                   axis=-1)
    vals = np.asarray(field_h(np.arange(mesh.n_triangles), ref), dtype=float)
    if vals.ndim == 2:
        vals = vals[..., None]
    return float(np.abs(vals - ex).max())
