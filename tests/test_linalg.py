"""Fraction-free (Bareiss) elimination against Fraction Gauss-Jordan.

The oracle functions are the Fraction versions the library had before
(verbatim): every determinant, rank, solution and inverse must be the same
exact number, on integer and on Fraction matrices, singular ones included.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from toricstab import _linalg as la


def _row_reduce(rows, ncols):
    work = [[F(x) for x in row] for row in rows]
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


def _det(m):
    n = len(m)
    a = [[F(x) for x in row] for row in m]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    result = F(sign)
    for i in range(n):
        result *= a[i][i]
    return result


def _solve(m, rhs):
    n = len(m)
    red, pivots = _row_reduce([list(row) + [rhs[i]] for i, row in enumerate(m)], n)
    return tuple(row[n] for row in red) if len(pivots) == n else None


def _invert(m):
    n = len(m)
    red, pivots = _row_reduce([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(m)], n)
    if len(pivots) < n or any(x.denominator != 1 for row in red for x in row):
        raise ValueError
    return tuple(tuple(int(x) for x in row[n:]) for row in red)


entries = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-6, 6), st.integers(1, 5)))


@st.composite
def matrices(draw, square=True, rational=True):
    """Random matrices, a share of them singular: one row a multiple of
    another."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5)) if not square else n
    cell = entries if rational else st.integers(-4, 4)
    rows = [list(draw(st.tuples(*[cell] * n))) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(m)))[:2]
        c = draw(st.integers(-2, 2))
        rows[i] = [c * y for y in rows[j]]
    return rows


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_det_rank_and_solve(m):
    n = len(m)
    assert la.det(m) == _det(m) and type(la.det(m)) is F
    assert la.rank(m, n) == len(_row_reduce(m, n)[1])
    rhs = [F(k - 2, k + 1) for k in range(n)]
    got, want = la.solve(m, rhs), _solve(m, rhs)
    assert (got is None) == (want is None) == (_det(m) == 0)
    if got is not None:
        x, d = got
        assert d > 0 and tuple(F(c, d) for c in x) == want


@settings(max_examples=200, deadline=None)
@given(matrices(square=False))
def test_rank_and_affine_rank_of_rectangular_matrices(m):
    n = len(m[0])
    assert la.rank(m, n) == len(_row_reduce(m, n)[1])
    base = m[0]
    assert la.affine_rank(m) == (
        0 if len(m) == 1 else len(_row_reduce(
            [[p[k] - base[k] for k in range(n)] for p in m[1:]], n)[1]))


@st.composite
def unimodular(draw):
    """Products of elementary integer row operations."""
    n = draw(st.integers(1, 5))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(rational=False), unimodular()))
def test_inverse_and_non_unimodular_error(m):
    try:
        want = _invert(m)
    except ValueError:
        with pytest.raises(ValueError, match="not unimodular"):
            la.invert_integer_matrix(m)
    else:
        assert la.invert_integer_matrix(m) == want


@pytest.mark.parametrize("m, det", [([[2, 1], [1, 1]], 1), ([[1, 1], [0, -1]], -1),
                                    ([[1, 0, 0], [0, 0, 1], [0, 1, 0]], -1)])
def test_unimodular_inverses(m, det):
    inv = la.invert_integer_matrix(m)
    assert la.det(m) == det
    n = len(m)
    assert [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]


def test_singular_and_non_unimodular_messages():
    with pytest.raises(ValueError, match=r"det=2\)"):
        la.invert_integer_matrix([[2, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"det=0\)"):
        la.invert_integer_matrix([[1, 2], [2, 4]])
    assert la.solve([[1, 2], [2, 4]], [1, 1]) is None
    assert la.det([[1, 2], [2, 4]]) == 0 and la.rank([[1, 2], [2, 4]], 2) == 1
