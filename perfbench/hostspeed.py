"""Speed of the host at the moment, from a fixed computation that uses no gsdpg.

The benchmark runs on shared hosts whose speed drifts by more than the
bounds it gates on: on a 2-core virtual machine, one and the same operation
took 2.5 s to 4.1 s within minutes, with its CPU time equal to its wall time
(so the process was slowed, not descheduled), and the slow spells lasted
tens of seconds, longer than many operations.  Medians inside a run cannot
remove that, so each timed operation is bracketed by two samples of a
reference computation, and its times are scaled by

    factor = REFERENCE_SECONDS / (mean of the two samples)

to the time it would take on a host where the reference computation takes
``REFERENCE_SECONDS``.  The reference mixes what gsdpg spends its time on:
an interpreted Python loop, a sparse LU factorisation and sparse
matrix-vector products.  It depends only on numpy and scipy, so no change to
gsdpg can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# the unit of scaled times: the reference computation takes this long
REFERENCE_SECONDS = 0.1


class HostSpeed:
    """Samples of the reference computation; ``factor`` scales a time."""

    def __init__(self):
        n = 80
        line = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = scipy.sparse.identity(n)
        self._laplacian = (scipy.sparse.kron(eye, line)
                           + scipy.sparse.kron(line, eye)).tocsc()
        self._rhs = np.ones(n * n)
        m, per_row = 20000, 10
        rng = np.random.default_rng(0)
        self._sparse = scipy.sparse.csr_matrix(
            (rng.uniform(size=m * per_row) / per_row,  # stays bounded
             (np.repeat(np.arange(m), per_row),
              rng.integers(0, m, m * per_row))), shape=(m, m))
        self._vector = np.ones(m)

    def sample(self) -> float:
        """Wall seconds of one reference computation."""
        t0 = perf_counter()
        s = 0.0
        for i in range(400_000):
            s += i * 0.5
        for _ in range(2):
            scipy.sparse.linalg.splu(self._laplacian).solve(self._rhs)
        x = self._vector
        for _ in range(300):
            x = self._sparse @ x * 0.5 + self._vector
        return perf_counter() - t0

    @staticmethod
    def factor(before: float, after: float) -> float:
        return REFERENCE_SECONDS / (0.5 * (before + after))
