"""Exact linear algebra: the one Gauss-Jordan elimination against its oracles."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rootquilt.linalg import dot, inverse, leading_minors_positive


# Oracles: the hand-written eliminations that inverse and solve_unique ran
# before both became calls of rref, kept verbatim; oracles.solve_unique is
# the call of rref.
def _old_inverse(m):
    n = len(m)
    a = [list(row) + [F(1) if i == j else F(0) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv = F(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def _old_solve_unique(rows, rhs):
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [list(row) + [b] for row, b in zip(rows, rhs, strict=True)]
    piv_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = F(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    if len(piv_cols) < n:
        return None
    sol = [F(0)] * n
    for i, c in enumerate(piv_cols):
        sol[c] = a[i][n]
    return tuple(sol)


# Small entries with many zeros, so that singular and rank-deficient
# matrices are drawn often.
RATIONALS = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3)])


def _vectors(n):
    return st.tuples(*[RATIONALS] * n)


@st.composite
def _matrices(draw, square=False):
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 5))
    rows = [draw(_vectors(n)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):  # a dependent last row
        c = draw(RATIONALS)
        rows[-1] = tuple(c * x for x in rows[0])
    return tuple(rows)


A2 = ((F(2), F(-1)), (F(-1), F(2)))


@settings(max_examples=400, deadline=None)
@given(_matrices(square=True))
@example(A2)
@example(((F(1), F(2)), (F(2), F(4))))  # singular
@example(((F(0),),))
def test_inverse_matches_oracle(m):
    try:
        expected = _old_inverse(m)
    except ValueError:
        with pytest.raises(ValueError, match="singular matrix"):
            inverse(m)
    else:
        assert inverse(m) == expected


@st.composite
def _small_integer_matrices(draw):
    """Square, of size 1-4, entries in -3..3, symmetric or not."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3).map(F)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return tuple(tuple(row) for row in rows)


@settings(max_examples=400, deadline=None)
@given(_small_integer_matrices())
@example(A2)
@example(((F(2), F(-1)), (F(1), F(2))))  # asymmetric, minors 2 and 5
@example(((F(1), F(1), F(0)), (F(1), F(1), F(0)), (F(0), F(0), F(1))))  # D_2 = 0
@example(((F(0), F(1)), (F(1), F(0))))  # D_1 = 0, D_2 < 0
@example(((F(1), F(2)), (F(2), F(1))))  # indefinite
def test_leading_minors_positive_matches_the_per_minor_oracle(m):
    assert leading_minors_positive(m) == oracles.leading_minors_positive(m)


@st.composite
def _systems(draw):
    rows = draw(_matrices())
    if draw(st.booleans()):
        # a right-hand side in the column space, so that rectangular
        # systems are consistent often enough
        x = draw(_vectors(len(rows[0])))
        return rows, tuple(sum((a * b for a, b in zip(row, x)), F(0)) for row in rows)
    return rows, draw(_vectors(len(rows)))


@settings(max_examples=400, deadline=None)
@given(_systems())
@example((A2, (F(1), F(0))))
@example((((F(1), F(2), F(0)), (F(0), F(1), F(1))), (F(1), F(1))))  # underdetermined
@example((((F(1), F(0)), (F(0), F(1)), (F(1), F(1))), (F(1), F(2), F(4))))  # inconsistent
@example((((F(1), F(0)), (F(0), F(1)), (F(1), F(1))), (F(1), F(2), F(3))))  # consistent 3x2
@example((((F(1), F(2)), (F(2), F(4))), (F(1), F(2))))  # singular, consistent
def test_solve_unique_matches_oracle(system):
    rows, rhs = system
    assert oracles.solve_unique(rows, rhs) == _old_solve_unique(rows, rhs)


# Any denominators, so that equal, coprime and dividing ones all meet.
WIDE_RATIONALS = st.integers(-9, 9) | st.builds(
    F, st.integers(-20, 20), st.sampled_from([1, 2, 3, 4, 6, 9, 12])
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(WIDE_RATIONALS, WIDE_RATIONALS), max_size=5))
@example([])
@example([(F(1, 2), F(1, 3)), (F(1, 6), F(1)), (F(-1, 4), F(2, 3))])
def test_dot_is_the_reduced_sum_of_products(pairs):
    u = tuple(a for a, _ in pairs)
    v = tuple(b for _, b in pairs)
    got = dot(u, v)
    expected = sum((a * b for a, b in pairs), F(0))
    assert type(got) is (int if expected.denominator == 1 else F)
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
    assert got == oracles.dot(tuple(map(F, u)), tuple(map(F, v)))  # the all-Fraction kernel


def test_dot_refuses_vectors_of_different_lengths():
    with pytest.raises(ValueError):
        dot((F(1), F(2)), (F(1),))
