"""Exact linear algebra over the rationals and the integer lattice.

Everything here works with ``fractions.Fraction`` / ``int`` and is used by the
polytope layer, where determinant and feasibility questions must be decided
exactly.  Floats never enter.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def primitivize(v):
    """Divide an integer vector by the gcd of its entries.

    Returns ``(primitive_vector, factor)`` with ``factor > 0``; raises on the
    zero vector.
    """
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(int(x) // g for x in v), g


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def det(m):
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    result = Fraction(sign)
    for i in range(n):
        result *= a[i][i]
    return result


def row_reduce(rows, ncols):
    """Gauss-Jordan over the rationals, pivoting in the first ``ncols``
    columns only: ``(reduced nonzero rows, pivot columns)``."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
    return work[:len(pivots)], pivots


def rank(rows, ncols):
    return len(row_reduce(rows, ncols)[1])


def solve(m, rhs):
    """Exact solution of the square system ``m x = rhs``; None if singular."""
    n = len(m)
    red, pivots = row_reduce([list(row) + [rhs[i]] for i, row in enumerate(m)], n)
    return tuple(row[n] for row in red) if len(pivots) == n else None


def kernel_direction(rows, n):
    """A nonzero rational vector orthogonal to all rows, or None."""
    red, pivots = row_reduce(rows, n)
    if len(pivots) >= n:
        return None
    free = next(c for c in range(n) if c not in pivots)
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for row, col in zip(red, pivots):
        vec[col] = -row[free]
    return tuple(vec)


def invert_integer_matrix(m):
    """Inverse of an integer matrix with determinant +-1, as integer rows."""
    n = len(m)
    red, pivots = row_reduce([list(row) + [int(i == j) for j in range(n)]
                              for i, row in enumerate(m)], n)
    if len(pivots) < n or any(x.denominator != 1 for row in red for x in row):
        raise ValueError(f"matrix is not unimodular (det={det(m)})")
    return tuple(tuple(int(x) for x in row[n:]) for row in red)


def unimodular_complement(v):
    """Rows 2..n of a unimodular matrix U with ``U v = e1``.

    For a primitive integer vector ``v`` this produces a basis of the rank
    ``n-1`` sublattice ``{u in Z^n : <v, u> = 0}``, plus the first row ``z``
    of U which satisfies ``<v, z> = 1``.  Returns ``(z, kernel_basis)``.
    """
    v = [int(x) for x in v]
    n = len(v)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    w = list(v)
    # Integer row reduction of w to (g, 0, ..., 0), tracking the row ops in u.
    for i in range(1, n):
        while w[i]:
            if w[0] == 0 or (w[i] != 0 and abs(w[i]) < abs(w[0])):
                w[0], w[i] = w[i], w[0]
                u[0], u[i] = u[i], u[0]
            q = w[i] // w[0]
            w[i] -= q * w[0]
            u[i] = [a - q * b for a, b in zip(u[i], u[0])]
    if w[0] == -1:
        w[0] = 1
        u[0] = [-a for a in u[0]]
    if w[0] != 1:
        raise ValueError(f"vector {tuple(v)} is not primitive (content {abs(w[0])})")
    # Now sum_j u[i][j] v[j] = delta_{i0}.
    kernel = tuple(tuple(row) for row in u[1:])
    z = tuple(u[0])
    return z, kernel


def affine_rank(points):
    """Dimension of the affine span of a list of rational points."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return rank([[p[k] - base[k] for k in range(len(base))] for p in points[1:]],
                len(base))
