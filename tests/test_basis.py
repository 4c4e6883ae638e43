import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_jacobi, roots_legendre

from gsdpg.basis import (
    MAX_BASIS_ORDER,
    MAX_QUAD_DEGREE,
    EdgeNodalBasis,
    TriangleModalBasis,
    _monomial_exponents,
    _orthonormal_coeffs,
    edge_rule,
    lobatto_nodes,
    triangle_dim,
    triangle_rule,
)


def exact_triangle_monomial(a, b):
    # int_T x^a y^b over the unit reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TestTriangleRule:
    def test_weights_sum_to_area(self):
        for deg in range(0, 21):
            r = triangle_rule(deg)
            assert r.weights.sum() == pytest.approx(0.5, abs=1e-14)
            assert np.all(r.weights > 0)

    def test_points_inside_reference_triangle(self):
        r = triangle_rule(15)
        x, y = r.points[:, 0], r.points[:, 1]
        assert np.all(x >= 0) and np.all(y >= 0)
        assert np.all(x + y <= 1 + 1e-14)

    @pytest.mark.parametrize("a,b,exact", [
        (0, 0, 0.5),
        (1, 0, 1 / 6),
        (0, 1, 1 / 6),
        (2, 3, 0.002380952380952381),
        (5, 5, 3.0062530062530064e-05),
        (10, 0, 0.007575757575757576),
        (7, 6, 2.775002775002775e-06),
    ])
    def test_monomials_exact(self, a, b, exact):
        r = triangle_rule(a + b)
        val = np.sum(r.weights * r.points[:, 0] ** a * r.points[:, 1] ** b)
        assert val == pytest.approx(exact, rel=1e-13)

    @given(a=st.integers(0, 8), b=st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_exactness_property(self, a, b):
        r = triangle_rule(a + b)
        val = np.sum(r.weights * r.points[:, 0] ** a * r.points[:, 1] ** b)
        assert val == pytest.approx(exact_triangle_monomial(a, b), rel=1e-12)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            triangle_rule(31)
        with pytest.raises(ValueError):
            triangle_rule(-1)


class TestEdgeRule:
    @given(p=st.integers(0, 20))
    @settings(max_examples=30, deadline=None)
    def test_monomial_exact(self, p):
        r = edge_rule(p)
        val = np.sum(r.weights * r.points[:, 0] ** p)
        assert val == pytest.approx(1.0 / (p + 1), rel=1e-13)

    def test_weights(self):
        r = edge_rule(9)
        assert r.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(r.weights > 0)


@pytest.mark.parametrize("n", range(1, MAX_QUAD_DEGREE // 2 + 2))
def test_gauss_rules_match_scipy(n):
    """n-point rules equal the scipy.special construction they replace."""
    degree = 2 * n - 2
    xu, wu = roots_legendre(n)
    xv, wv = roots_jacobi(n, 1.0, 0.0)
    u, v = np.meshgrid(0.5 * (xu + 1.0), 0.5 * (xv + 1.0), indexing="ij")
    tri = triangle_rule(degree)
    assert np.abs(tri.points[:, 0] - (u * (1.0 - v)).ravel()).max() <= 1e-14
    assert np.abs(tri.points[:, 1] - v.ravel()).max() <= 1e-14
    assert np.abs(tri.weights - np.outer(0.5 * wu, 0.25 * wv).ravel()).max() <= 1e-14
    edge = edge_rule(degree)
    assert np.abs(edge.points[:, 0] - 0.5 * (xu + 1.0)).max() <= 1e-14
    assert np.abs(edge.weights - 0.5 * wu).max() <= 1e-14
    if n < MAX_BASIS_ORDER:  # interior Lobatto nodes of the order-(n+1) edge basis
        xl, _ = roots_jacobi(n, 1.0, 1.0)
        assert np.abs(lobatto_nodes(n + 1)[1:-1] - 0.5 * (xl + 1.0)).max() <= 1e-14


class TestTriangleModalBasis:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 7])
    def test_orthonormality(self, order):
        basis = TriangleModalBasis(order)
        r = triangle_rule(2 * order)
        vals = basis.eval(r.points)
        M = (vals * r.weights[:, None]).T @ vals
        assert np.abs(M - np.eye(basis.dim)).max() < 5e-12

    def test_dimension(self):
        for order in range(6):
            assert TriangleModalBasis(order).dim == triangle_dim(order)
            assert triangle_dim(order) == (order + 1) * (order + 2) // 2

    def test_gradients_match_finite_differences(self):
        basis = TriangleModalBasis(4)
        rng = np.random.default_rng(7)
        pts = rng.random((20, 2)) * 0.5
        h = 1e-6
        grads = basis.grad(pts)
        for d, e in enumerate(np.eye(2)):
            vp = basis.eval(pts + h * e)
            vm = basis.eval(pts - h * e)
            fd = (vp - vm) / (2 * h)
            assert np.abs(fd - grads[:, :, d]).max() < 1e-7

    def test_stacked_points_match_flattened(self):
        basis = TriangleModalBasis(3)
        pts = np.random.default_rng(2).random((5, 7, 2)) * 0.5
        vals = basis.eval(pts)
        assert vals.shape == (5, 7, basis.dim)
        assert np.array_equal(vals, basis.eval(pts.reshape(-1, 2)).reshape(5, 7, -1))
        assert np.array_equal(basis.grad(pts), basis.grad(pts.reshape(-1, 2)).reshape(5, 7, -1, 2))

    def test_spans_constants(self):
        basis = TriangleModalBasis(3)
        vals = basis.eval(np.array([[0.25, 0.25], [0.1, 0.7]]))
        # first function is the normalized constant sqrt(2)
        assert vals[:, 0] == pytest.approx([math.sqrt(2)] * 2, rel=1e-14)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            TriangleModalBasis(13)

    @pytest.mark.parametrize("order", range(9))
    def test_coeffs_match_ldlt_reference(self, order):
        # order 12 takes seconds in either form, so it is left out here
        assert np.array_equal(_orthonormal_coeffs(order), ldlt_coeffs(order))


def ldlt_coeffs(order):
    """Reference modal coefficients: exact rational LDL^T of the monomial
    mass matrix, then the inverse of the unit lower-triangular factor."""
    exps = _monomial_exponents(order)
    n = len(exps)
    M = [[Fraction(math.factorial(ai + aj) * math.factorial(bi + bj),
                   math.factorial(ai + aj + bi + bj + 2)) for aj, bj in exps]
         for ai, bi in exps]
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            L[i][j] = (M[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / D[j]
        L[i][i] = Fraction(1)
        D[i] = M[i][i] - sum(L[i][k] * L[i][k] * D[k] for k in range(i))
    W = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        W[i][i] = Fraction(1)
        for j in range(i - 1, -1, -1):
            W[i][j] = -sum(L[i][k] * W[k][j] for k in range(j, i))
    C = np.empty((n, n))
    for i in range(n):
        di = 1.0 / math.sqrt(float(D[i]))
        for j in range(n):
            C[j, i] = float(W[i][j]) * di
    return C


class TestEdgeNodalBasis:
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_kronecker_at_nodes(self, order):
        basis = EdgeNodalBasis(order)
        vals = basis.eval(basis.nodes)
        assert np.abs(vals - np.eye(order + 1)).max() < 1e-12

    @given(order=st.integers(1, 6))
    @settings(max_examples=12, deadline=None)
    def test_partition_of_unity(self, order):
        basis = EdgeNodalBasis(order)
        t = np.linspace(0, 1, 17)
        vals = basis.eval(t)
        assert vals.sum(axis=1) == pytest.approx(np.ones(17), abs=1e-11)

    def test_lobatto_endpoints_and_symmetry(self):
        for order in range(1, 7):
            n = lobatto_nodes(order)
            assert n[0] == 0.0 and n[-1] == 1.0
            assert np.abs(n + n[::-1] - 1.0).max() < 1e-14
            assert np.all(np.diff(n) > 0)
