import numpy as np
import pytest

from gsdpg.mesh import Mesh, build_builtin_mesh
from gsdpg.problems import get_problem
from gsdpg.spaces import TestSpace

# the broken test-space class starts with "Test"; keep pytest from trying
# to collect it as a test suite
TestSpace.__test__ = False


@pytest.fixture(scope="session")
def jittered_mesh():
    """rect-amr domain, 4x4 cells, interior vertices moved by 10% of their
    shortest incident edge so that no two elements share a shape."""
    coarse = build_builtin_mesh(get_problem("rect-amr").boundary, (4, 4))
    rng = np.random.default_rng(7)
    shortest = np.full(coarse.n_vertices, np.inf)
    np.minimum.at(shortest, coarse.edges[:, 0], coarse.edge_lengths)
    np.minimum.at(shortest, coarse.edges[:, 1], coarse.edge_lengths)
    angle = rng.uniform(0.0, 2.0 * np.pi, coarse.n_vertices)
    offset = 0.1 * shortest[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    offset[coarse.edges[coarse.boundary_edge_flags].ravel()] = 0.0
    return Mesh(coarse.vertices + offset, coarse.triangles)
