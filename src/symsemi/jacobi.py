"""A float eigen-solve for small symmetric matrices, in pure Python.

The oscillator's float mode takes its factors of A from it, and exact mode
its candidate singular values when A^t A is not diagonal.
"""

import math

from .cliffordlab import Factors, Singular, _dot
from .errors import CheckFailure
from .qlinalg import SparseMat

_JACOBI_SWEEPS = 60


def _jacobi_eigh(g: SparseMat) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and orthonormal eigenvectors of a small symmetric matrix
    in floats, by cyclic Jacobi rotations (Golub and Van Loan, 8.5); an
    entry below the rounding of its diagonal pair counts as zero."""
    n = g.rows
    a = [[float(x) for x in row] for row in g.to_rows()]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app, aqq, apq = a[p][p], a[q][q], a[p][q]
                if (abs(app) + 100 * abs(apq) == abs(app)
                        and abs(aqq) + 100 * abs(apq) == abs(aqq)):
                    a[p][q] = a[q][p] = 0.0
                    continue
                rotated = True
                theta = (aqq - app) / (2 * apq)
                t = math.copysign(1 / (abs(theta) + math.hypot(theta, 1)),
                                  theta)
                c = 1 / math.hypot(t, 1)
                s = t * c
                for row in a + v:
                    row[p], row[q] = c * row[p] - s * row[q], \
                        s * row[p] + c * row[q]
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                              [s * x + c * y for x, y in zip(a[p], a[q])])
                a[p][q] = a[q][p] = 0.0
        if not rotated:
            return [a[k][k] for k in range(n)], [list(x) for x in zip(*v)]
    raise CheckFailure("Jacobi eigen-solve did not converge")


def _float_factors(a: SparseMat, gram: SparseMat) -> Factors:
    """Float ``Factors`` of A from the eigenpairs of A^t A: w[k] = v_k,
    a[k] = A v_k, scale 1, norm[k] = sigma_k."""
    values, vectors = _jacobi_eigh(gram)
    if min(values) <= 0:
        raise Singular("A^t A not positive definite (A singular?)")
    sigma = tuple(map(math.sqrt, values))
    return Factors(sigma, tuple(map(tuple, vectors)), tuple(
        tuple(_dot(row, v) for row in a.to_rows()) for v in vectors),
        1, sigma)
