"""Exact rational vectors and matrices, in one normal form.

A scalar is an ``int`` when its value is integral and a reduced ``Fraction``
only when it is not.  ``exact`` puts a value in that form, every function
here returns it, and ``div`` is the one true division of the exact layer, so
``int / int`` never makes a float.  3 == Fraction(3), with equal hash and
``str``, so the form changes no key, order or text.

Vectors are tuples of scalars, matrices tuples of row tuples.  All
dimensions here are tiny (the rank of a root system, at most a handful), so
one dense Gauss-Jordan elimination, ``rref``, serves rank and inverse; the
Sylvester test eliminates without row swaps.  Reflections take
the covector gram * alpha from the caller, which computes it once per root.
No floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Scalar = int | Fraction  # an int when integral, else a reduced Fraction
Vec = tuple[Scalar, ...]
Mat = tuple[Vec, ...]


def exact(x) -> Scalar:
    """x in normal form: the int when x is integral, else the reduced Fraction."""
    if type(x) is int:
        return x
    x = x if type(x) is Fraction else Fraction(x)
    return x.numerator if x.denominator == 1 else x


def div(p: Scalar, q: Scalar) -> Scalar:
    """The exact quotient p / q in normal form; pure int when q divides p."""
    if type(p) is int and type(q) is int:
        return p // q if p % q == 0 else Fraction(p, q)
    return exact(Fraction(p) / q)


def vec(entries: Iterable) -> Vec:
    return tuple(map(exact, entries))


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zero_vec(n: int) -> Vec:
    return (0,) * n


def identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def add(u: Vec, v: Vec) -> Vec:
    return tuple(map(exact, (a + b for a, b in zip(u, v, strict=True))))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(map(exact, (a - b for a, b in zip(u, v, strict=True))))


def scale(c, u: Vec) -> Vec:
    c = exact(c)
    return tuple(map(exact, (c * a for a in u)))


def dot(u: Vec, v: Vec) -> Scalar:
    """The exact sum of products, reduced to lowest terms once at the end.

    Integer terms add as ints.  Summing ``Fraction`` products would
    normalise (one gcd) after every product and every partial sum; here the
    terms are accumulated as one integer numerator over a running
    denominator, which a term's denominator multiplies only when it is
    neither 1 nor equal to it.
    """
    num, den = 0, 1
    for a, b in zip(u, v, strict=True):
        if type(a) is int and type(b) is int:
            p, q = a * b, 1
        else:
            p, q = a.numerator * b.numerator, a.denominator * b.denominator
        if q == den:
            num += p
        elif q == 1:
            num += p * den
        else:
            num = num * q + p * den
            den *= q
    return num if den == 1 else div(num, den)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m, strict=True))


def gram_pair(gram: Mat, u: Vec, v: Vec) -> Scalar:
    """The pairing u^T gram v."""
    return dot(u, mat_vec(gram, v))


def reflect(g_alpha: Vec, alpha: Vec, v: Vec) -> Vec:
    """Reflection of v across the hyperplane orthogonal to alpha; pure int
    arithmetic when alpha and v are integral and the coefficient is an int.

    ``g_alpha`` is the covector gram * alpha of a symmetric gram, which the
    caller computes once per root rather than once per reflection.
    """
    c = div(2 * dot(g_alpha, v), dot(g_alpha, alpha))
    return tuple(map(exact, (x - c * a for x, a in zip(v, alpha))))


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
            f = div(a[r][col], pivot)
            for c in range(col + 1, n):
                a[r][c] -= f * a[col][c]
    return True


def inverse(m: Mat) -> Mat:
    """Inverse of a square matrix: the right half of rref([m | I])."""
    n = len(m)
    reduced = rref([list(row) + [int(i == j) for j in range(n)]
                    for i, row in enumerate(m)])
    # [m | I] has rank n, so n rows stay; the last pivot lies in m exactly when m is invertible
    if n and reduced[-1][n - 1] == 0:
        raise ValueError("singular matrix")
    return tuple(row[n:] for row in reduced)


def rref(rows: Sequence[Sequence[Scalar]]) -> Mat:
    """Reduced row echelon form with zero rows dropped."""
    if not rows:
        return ()
    m, n = len(rows), len(rows[0])
    a = [list(map(exact, row)) for row in rows]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        a[r] = [div(x, p) for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [exact(x - f * y) for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in a[:r] if any(x != 0 for x in row))


def matrix_rank(rows: Sequence[Vec]) -> int:
    return len(rref(rows))


def is_integral(v: Vec) -> bool:
    return all(x.denominator == 1 for x in v)


def parse_rational(value) -> Scalar:
    """Accept ints, Fractions and 'p/q' strings; reject floats to keep exactness.

    Every rejection, a zero denominator included, is a ``ValueError``.
    """
    if type(value) in (int, Fraction, str):  # Fraction("p/q") allows surrounding space
        try:
            return exact(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, (bool, float)):
        raise ValueError(f"refusing inexact value {value!r}")
    raise ValueError(f"cannot parse rational from {value!r}")


def format_rational(x: Scalar) -> str:
    return str(exact(x))


def format_vec(v: Vec) -> str:
    """An exact vector as comma-separated entries, e.g. 1,-1/2."""
    return ",".join(map(str, v))


def _vec_text(v: Vec) -> str:
    """A vector as its exact entries, e.g. (-1, 1/2), for error messages."""
    return f"({', '.join(map(str, v))})"
