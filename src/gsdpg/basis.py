"""Polynomial bases and quadrature on the reference triangle and edge.

The reference triangle has vertices (0,0), (1,0), (0,1) (area 1/2); the
reference edge is [0,1].  Element-interior fields use a modal basis that is
orthonormal in L2 on the reference triangle; skeleton fields use nodal
Lagrange bases at Gauss-Lobatto points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

MAX_QUAD_DEGREE = 30
MAX_BASIS_ORDER = 12


@dataclass(frozen=True)
class QuadratureRule:
    """Points (n, dim) and positive weights summing to the reference measure."""

    points: np.ndarray
    weights: np.ndarray


def _gauss_jacobi(n: int, a: float, b: float):
    """n-point Gauss rule on [-1, 1] for the weight (1-x)^a (1+x)^b, a + b > 0.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the orthonormal Jacobi recurrence, and each weight is
    the total mass of the weight times the squared first component of the
    node's unit eigenvector.
    """
    k = np.arange(1, n)
    c = 2.0 * np.arange(n) + a + b
    diag = (b * b - a * a) / (c * (c + 2.0))
    c = c[1:]
    off = 2.0 / c * np.sqrt(k * (k + a) * (k + b) * (k + a + b) / ((c + 1.0) * (c - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mass = 2.0 ** (a + b + 1) * math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)
    return x, mass * v[0] ** 2


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Collapsed-tensor Gauss rule on the reference triangle.

    Exact for all polynomials of total degree <= ``degree``; weights are
    positive and sum to 1/2.  Built from Gauss-Legendre in the collapsed
    direction and Gauss-Jacobi (weight 1-v) in the other, so the Duffy
    Jacobian is absorbed into the weights.
    """
    if not 0 <= degree <= MAX_QUAD_DEGREE:
        raise ValueError(f"triangle quadrature degree {degree} outside [0, {MAX_QUAD_DEGREE}]")
    n = degree // 2 + 1
    xu, wu = leggauss(n)
    u = 0.5 * (xu + 1.0)
    wu = 0.5 * wu
    xv, wv = _gauss_jacobi(n, 1.0, 0.0)
    v = 0.5 * (xv + 1.0)
    wv = 0.25 * wv  # includes the (1-v) factor of the Duffy map
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([(uu * (1.0 - vv)).ravel(), vv.ravel()])
    w = np.outer(wu, wv).ravel()
    return QuadratureRule(pts, w)


@lru_cache(maxsize=None)
def edge_rule(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0,1], exact to ``degree``; weights sum to 1."""
    if not 0 <= degree <= MAX_QUAD_DEGREE:
        raise ValueError(f"edge quadrature degree {degree} outside [0, {MAX_QUAD_DEGREE}]")
    n = degree // 2 + 1
    x, w = leggauss(n)
    return QuadratureRule(0.5 * (x[:, None] + 1.0), 0.5 * w)


def default_volume_degree(k: int, s: int) -> int:
    # covers every bilinear term including the degree-1 factor r
    return min(2 * (k + s) + 3, MAX_QUAD_DEGREE)


def default_edge_degree(k: int, s: int) -> int:
    return min(2 * (k + s) + 2, MAX_QUAD_DEGREE)


def triangle_dim(order: int) -> int:
    return (order + 1) * (order + 2) // 2


def _monomial_exponents(order: int) -> list[tuple[int, int]]:
    return [(d - b, b) for d in range(order + 1) for b in range(d + 1)]


@lru_cache(maxsize=None)
def _orthonormal_coeffs(order: int) -> np.ndarray:
    """Coefficient matrix C with phi_i = sum_j C[j, i] * x^a_j y^b_j.

    Exact rational forward elimination of [M | I], M the monomial mass
    matrix on the reference triangle (int x^a y^b = a! b! / (a+b+2)!).  With
    M = L D L^T it leaves D on the diagonal of the left block and L^{-1} in
    the right one, so the resulting set is orthonormal to machine precision.
    """
    exps = _monomial_exponents(order)
    n = len(exps)
    A = [[Fraction(math.factorial(ai + aj) * math.factorial(bi + bj),
                   math.factorial(ai + aj + bi + bj + 2)) for aj, bj in exps]
         + [Fraction(int(i == j)) for j in range(n)]
         for i, (ai, bi) in enumerate(exps)]
    for j in range(n):  # M is SPD: no pivoting
        nz = slice(j + 1, n + j + 1)  # the rest of row j is done or zero
        for i in range(j + 1, n):
            f = A[i][j] / A[j][j]
            A[i][nz] = [x - f * y for x, y in zip(A[i][nz], A[j][nz])]
    C = np.empty((n, n))
    for i in range(n):
        di = 1.0 / math.sqrt(float(A[i][i]))
        for j in range(n):
            C[j, i] = float(A[i][n + j]) * di
    return C


class TriangleModalBasis:
    """L2-orthonormal modal basis of P^order on the reference triangle."""

    def __init__(self, order: int):
        if not 0 <= order <= MAX_BASIS_ORDER:
            raise ValueError(f"modal basis order {order} outside [0, {MAX_BASIS_ORDER}]")
        self.order = order
        self.dim = triangle_dim(order)
        self._exps = np.array(_monomial_exponents(order), dtype=int)
        self._coeffs = _orthonormal_coeffs(order)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values (..., dim) at reference points (..., 2)."""
        x, y = np.asarray(points, dtype=float).reshape(-1, 2).T[..., None]
        a, b = self._exps.T
        return ((x**a * y**b) @ self._coeffs).reshape(*np.shape(points)[:-1], self.dim)

    def grad(self, points: np.ndarray) -> np.ndarray:
        """Reference gradients (..., dim, 2) at reference points (..., 2)."""
        x, y = np.asarray(points, dtype=float).reshape(-1, 2).T[..., None]
        a, b = self._exps.T
        Vx = np.where(a > 0, a * x ** np.maximum(a - 1, 0) * y**b, 0.0)
        Vy = np.where(b > 0, b * x**a * y ** np.maximum(b - 1, 0), 0.0)
        grads = np.stack([Vx @ self._coeffs, Vy @ self._coeffs], axis=-1)
        return grads.reshape(*np.shape(points)[:-1], self.dim, 2)


def lobatto_nodes(order: int) -> np.ndarray:
    """order+1 Gauss-Lobatto nodes on [0,1], endpoints included."""
    if order < 1:
        raise ValueError("nodal edge basis needs order >= 1")
    if order == 1:
        return np.array([0.0, 1.0])
    xi, _ = _gauss_jacobi(order - 1, 1.0, 1.0)
    return np.concatenate([[0.0], 0.5 * (xi + 1.0), [1.0]])


class EdgeNodalBasis:
    """Lagrange basis of P^order on [0,1] at Gauss-Lobatto nodes."""

    def __init__(self, order: int):
        if not 1 <= order <= MAX_BASIS_ORDER:
            raise ValueError(f"nodal basis order {order} outside [1, {MAX_BASIS_ORDER}]")
        self.order = order
        self.dim = order + 1
        self.nodes = lobatto_nodes(order)
        V = np.vander(self.nodes, order + 1, increasing=True)
        self._coeffs = np.linalg.inv(V)  # column i: monomial coeffs of shape i

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values (..., dim) at points (...) in [0,1]."""
        t = np.asarray(points, dtype=float)
        V = np.vander(t.ravel(), self.dim, increasing=True)
        return (V @ self._coeffs).reshape(*t.shape, self.dim)
