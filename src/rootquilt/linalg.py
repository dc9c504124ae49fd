"""Exact rational vectors and matrices.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  All
dimensions here are tiny (the rank of a root system, at most a handful),
so one dense Gauss-Jordan elimination, ``rref``, serves rank, inverse and
unique solves; the Sylvester test eliminates without row swaps.
Reflections take the covector gram * alpha from the caller, which computes
it once per root.  No floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def scale(c, u: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in u)


def dot(u: Vec, v: Vec) -> Fraction:
    """The exact sum of products, reduced to lowest terms once at the end.

    Summing ``Fraction`` products would normalise (one gcd) after every
    product and every partial sum; here the terms are accumulated as one
    integer numerator over a running denominator, which a term's denominator
    multiplies only when it is neither 1 nor equal to it.
    """
    num, den = 0, 1
    for a, b in zip(u, v, strict=True):
        p = a.numerator * b.numerator
        q = a.denominator * b.denominator
        if q == den:
            num += p
        elif q == 1:
            num += p * den
        else:
            num = num * q + p * den
            den *= q
    return Fraction(num, den)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m, strict=True))


def gram_pair(gram: Mat, u: Vec, v: Vec) -> Fraction:
    """The pairing u^T gram v."""
    return dot(u, mat_vec(gram, v))


def reflect(g_alpha: Vec, alpha: Vec, v: Vec) -> Vec:
    """Reflection of v across the hyperplane orthogonal to alpha.

    ``g_alpha`` is the covector gram * alpha of a symmetric gram, which the
    caller computes once per root rather than once per reflection.
    """
    c = 2 * dot(g_alpha, v) / dot(g_alpha, alpha)
    return tuple(x - c * a for x, a in zip(v, alpha))


def is_symmetric(m: Mat) -> bool:
    return m == transpose(m)


def leading_minors_positive(m: Mat) -> bool:
    """Sylvester test for positive definiteness: every leading minor D_k > 0.

    Elimination without row swaps leaves D_k / D_{k-1} as the k-th pivot,
    so every minor is positive exactly when every pivot is.
    """
    a = [list(row) for row in m]
    n = len(a)
    for col in range(n):
        pivot = a[col][col]
        if pivot <= 0:
            return False
        for r in range(col + 1, n):
            f = a[r][col] / pivot
            for c in range(col + 1, n):
                a[r][c] -= f * a[col][c]
    return True


def inverse(m: Mat) -> Mat:
    """Inverse of a square matrix: the right half of rref([m | I])."""
    n = len(m)
    reduced = rref([list(row) + [Fraction(int(i == j)) for j in range(n)]
                    for i, row in enumerate(m)])
    # [m | I] has rank n, so n rows stay; the last pivot lies in m exactly when m is invertible
    if n and reduced[-1][n - 1] == 0:
        raise ValueError("singular matrix")
    return tuple(row[n:] for row in reduced)


def solve_unique(rows: Sequence[Vec], rhs: Vec) -> Vec | None:
    """Solve a (possibly rectangular) linear system.

    Returns the solution when it exists and is unique, otherwise None
    (inconsistent or underdetermined).  That is when rref of the augmented
    matrix has one row per unknown, the last with its pivot on the last
    unknown.
    """
    n = len(rows[0]) if rows else 0
    reduced = rref([list(row) + [b] for row, b in zip(rows, rhs, strict=True)])
    if len(reduced) != n or (n and reduced[-1][n - 1] == 0):
        return None
    return tuple(row[n] for row in reduced)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row echelon form with zero rows dropped."""
    if not rows:
        return ()
    m, n = len(rows), len(rows[0])
    a = [list(map(Fraction, row)) for row in rows]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in a[:r] if any(x != 0 for x in row))


def matrix_rank(rows: Sequence[Vec]) -> int:
    return len(rref(rows))


def is_integral(v: Vec) -> bool:
    return all(x.denominator == 1 for x in v)


def parse_rational(value) -> Fraction:
    """Accept ints and 'p/q' strings; reject floats to keep exactness."""
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"refusing inexact value {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise ValueError(f"cannot parse rational from {value!r}")


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def format_vec(v: Vec) -> str:
    """An exact vector as comma-separated entries, e.g. 1,-1/2."""
    return ",".join(map(str, v))
