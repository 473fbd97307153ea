"""Exact linear algebra over the integers.

Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): entries stay
integers, every division is exact, and each entry below the pivots is a
minor of the input.  Rows of ``Fraction``s are first scaled to integers by
the lcm of their denominators.  Floats never enter.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def primitivize(v):
    """Divide an integer vector by the gcd of its entries.

    Returns ``(primitive_vector, factor)`` with ``factor > 0``; raises on the
    zero vector.
    """
    v = [int(x) for x in v]
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v), g


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _integer_rows(rows):
    """``(rows scaled to integer lists, product of the row scales)``."""
    out, scale = [], 1
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        row = [Fraction(x) for x in row]
        s = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    return out, scale


def _echelon(a, ncols):
    """Bareiss elimination of the integer rows ``a`` in place, pivoting in
    the first ``ncols`` columns: ``(pivot columns, sign of the row swaps)``;
    the last pivot of a square nonsingular input is sign * det."""
    pivots, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p], sign = a[p], a[r], -sign
        top, piv = a[r], a[r][c]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = piv
        pivots.append(c)
    return pivots, sign


def _back(a, pivots, rhs):
    """``(X, d)``: X / d solves the echelon rows ``a`` on their pivot columns
    for the right side ``rhs``, d the last pivot.  d times the solution is a
    vector of Cramer numerators, so each division is exact."""
    d = a[len(pivots) - 1][pivots[-1]]
    x = [0] * len(pivots)
    for k in reversed(range(len(pivots))):
        s = d * rhs[k] - sum(a[k][pivots[j]] * x[j] for j in range(k + 1, len(x)))
        x[k] = s // a[k][pivots[k]]
    return x, d


def det(m):
    """Exact determinant, as a Fraction."""
    a, scale = _integer_rows(m)
    pivots, sign = _echelon(a, len(a))
    if len(pivots) < len(a):
        return Fraction(0)
    return Fraction(sign * a[-1][-1] if a else 1, scale)


def rank(rows, ncols):
    return len(_echelon(_integer_rows(rows)[0], ncols)[0])


def solve(m, rhs):
    """The square system ``m x = rhs`` as ``(X, d)`` with x = X / d in
    lowest terms, d > 0; None if singular."""
    n = len(m)
    a = _integer_rows([list(row) + [b] for row, b in zip(m, rhs)])[0]
    pivots, _ = _echelon(a, n)
    if len(pivots) < n:
        return None
    x, d = _back(a, pivots, [row[n] for row in a])
    g = gcd(d, *x) if d > 0 else -gcd(d, *x)
    return tuple(c // g for c in x), d // g


def invert_integer_matrix(m):
    """Inverse of an integer matrix with determinant +-1, as integer rows."""
    n = len(m)
    cols = [solve(m, [int(i == j) for i in range(n)]) for j in range(n)]
    if any(col is None or col[1] != 1 for col in cols):
        raise ValueError(f"matrix is not unimodular (det={det(m)})")
    return tuple(tuple(col[0][r] for col in cols) for r in range(n))


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
        w[0], u[0] = 1, [-a for a in u[0]]
    if w[0] != 1:
        raise ValueError(f"vector {tuple(v)} is not primitive (content {abs(w[0])})")
    # Now sum_j u[i][j] v[j] = delta_{i0}.
    return tuple(u[0]), tuple(tuple(row) for row in u[1:])


def affine_rank(points):
    """Dimension of the affine span of a list of integer or rational points."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return rank([[p[k] - base[k] for k in range(len(base))] for p in points[1:]],
                len(base))
