"""The constructions that closed forms and faster paths replaced, kept as oracles.

``build_triple`` and ``plane_model`` below are the triangle model's exact
half as it was before the closed forms: every subspace certified per call
and every intersection found by elimination.  ``jacobi_pair`` is the Jacobi
recurrence as it was before it ran in place, ``segment_breaks`` the panel
grading of the triangle map's path integrals before it followed the
Gauss-Legendre error bound, and ``canonical_shift`` the epsilon scan as it
was before it ran in integers.  The differential tests compare the code in
``rootquilt`` with them.
"""

import math
from fractions import Fraction

import numpy as np

from rootquilt.errors import Degenerate, InvariantViolation
from rootquilt.indices import MonotoneData
from rootquilt.lattice import (
    MAX_DENOMINATOR_INDEX,
    GenericShift,
    Lattice,
    Mode,
    validate_generic,
    weighted_root_sum,
)
from rootquilt.linalg import Vec, add, matrix_rank, rref, scale, solve_unique, sub, vec, zero_vec
from rootquilt.roots import RestrictedRootSystem
from rootquilt.roots import WeylElement
from rootquilt.triangle import AffineLagrangianTriple, AffineSubspace, PlaneModel, _sympl


def _intersect(a: AffineSubspace, b: AffineSubspace) -> Vec | None:
    """Unique intersection point of two affine subspaces, or None."""
    dim = len(a.point)
    k1, k2 = len(a.directions), len(b.directions)
    rows = []
    rhs = []
    for coord in range(dim):
        rows.append(
            vec([d[coord] for d in a.directions] + [-d[coord] for d in b.directions])
        )
        rhs.append(b.point[coord] - a.point[coord])
    sol = solve_unique(rows, vec(rhs))
    if sol is None:
        return None
    out = a.point
    for c, d in zip(sol[:k1], a.directions):
        out = add(out, tuple(c * x for x in d))
    return out


def build_triple(
    q: Vec, w: WeylElement, shift: GenericShift, md: MonotoneData
) -> AffineLagrangianTriple:
    """Construct the three affine Lagrangians and intersect them exactly."""
    system = shift.system
    r = system.rank
    qa = add(q, shift.a)
    x_out = w(md.x0)
    d = sub(qa, x_out)
    if all(x == 0 for x in d):
        raise Degenerate("q + a coincides with w X0")

    def basis(j):
        return tuple(Fraction(1) if i == j else Fraction(0) for i in range(r))

    zero = zero_vec(r)
    l1 = AffineSubspace(
        point=zero + zero,
        directions=tuple(zero + basis(j) for j in range(r)),
        eq_rows=tuple(basis(j) + zero for j in range(r)),
        eq_rhs=zero,
    )
    l2 = AffineSubspace(
        point=qa + zero,
        directions=tuple(tuple(-x for x in basis(j)) + basis(j) for j in range(r)),
        eq_rows=tuple(basis(j) + basis(j) for j in range(r)),
        eq_rhs=qa,
    )
    l3 = AffineSubspace(
        point=zero + x_out,
        directions=tuple(basis(j) + zero for j in range(r)),
        eq_rows=tuple(zero + basis(j) for j in range(r)),
        eq_rhs=x_out,
    )
    for sub_ in (l1, l2, l3):
        if matrix_rank(list(sub_.directions)) != r:
            raise InvariantViolation("direction space is degenerate")
        for u in sub_.directions:
            for v in sub_.directions:
                if _sympl(system.gram, u, v) != 0:
                    raise InvariantViolation("direction space is not isotropic")
        if not sub_.contains(sub_.point):
            raise InvariantViolation("inconsistent affine representation")
    p12 = _intersect(l1, l2)
    p23 = _intersect(l2, l3)
    p13 = _intersect(l1, l3)
    if p12 is None or p23 is None or p13 is None:
        raise Degenerate("subspaces are not pairwise transverse")
    return AffineLagrangianTriple(system, q, w, l1, l2, l3, p12, p23, p13, d)


_LINE_TARGETS = (
    ((Fraction(1), Fraction(0), Fraction(0)),),  # x = 0
    ((Fraction(1), Fraction(1), Fraction(1)),),  # x + y = 1
    ((Fraction(0), Fraction(1), Fraction(0)),),  # y = 0
)


def plane_model(triple: AffineLagrangianTriple) -> PlaneModel:
    """Reduce the triple to unit plane coordinates and verify the reduction."""
    r = triple.system.rank
    d = triple.difference
    zero = zero_vec(r)
    model = PlaneModel(
        triple=triple,
        base=triple.p13,  # (0, w X0)
        u_dir=d + zero,
        v_dir=zero + d,
    )
    expected = {(0, 1): triple.p12, (1, 0): triple.p23, (0, 0): triple.p13}
    for (x, y), p in expected.items():
        if model.coordinates(p) != (Fraction(x), Fraction(y)):
            raise InvariantViolation("intersection point has wrong plane coordinates")
    for sub_, target in zip((triple.l1, triple.l2, triple.l3), _LINE_TARGETS):
        pulled = []
        for row, c in zip(sub_.eq_rows, sub_.eq_rhs):
            ax = sum(r_ * u for r_, u in zip(row, model.u_dir))
            ay = sum(r_ * v for r_, v in zip(row, model.v_dir))
            a0 = c - sum(r_ * b for r_, b in zip(row, model.base))
            pulled.append((ax, ay, a0))
        if rref(pulled) != rref(target):
            raise InvariantViolation("pulled-back boundary line is wrong")
    return model


# -- the numerical half -----------------------------------------------------


def jacobi_pair(n: int, alpha: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n and P_n' of the Jacobi polynomial P^(alpha, 0), for n >= 1.

    P_n comes from the three-term recurrence and P_n' from P_n and P_{n-1}
    by the differentiation identity, both from DLMF 18.9 with beta = 0.
    """
    a = alpha
    prev, cur = np.ones_like(x), ((a + 2.0) * x + a) / 2.0
    for m in range(2, n + 1):
        c = 2.0 * m + a
        den = 2.0 * m * (m + a) * (c - 2.0)
        slope = (c - 1.0) * c * (c - 2.0) / den
        const = (c - 1.0) * a * a / den
        back = 2.0 * (m + a - 1.0) * (m - 1.0) * c / den
        prev, cur = cur, (slope * x + const) * cur - back * prev
    c = 2.0 * n + a
    deriv = (n * (a - c * x) * cur + 2.0 * n * (n + a) * prev) / (c * (1.0 - x * x))
    return cur, deriv


def segment_breaks(dist: float) -> np.ndarray:
    """Dyadic refinement of [0, 1] toward t = 1, tuned to the distance
    between the path endpoint and the nearest prevertex."""
    if dist >= 0.5:
        levels = 4
    else:
        levels = min(52, 4 + int(math.ceil(math.log2(2.0 / max(dist, 1e-15)))))
    pts = [0.0] + [1.0 - 0.5**j for j in range(1, levels + 1)] + [1.0]
    return np.array(pts)


# -- the shift ----------------------------------------------------------------


def canonical_shift(
    system: RestrictedRootSystem,
    lattice: Lattice,
    mode: Mode = Mode.SMALL_IN_CHAMBER,
    radius: Fraction = Fraction(0),
) -> GenericShift:
    """The reproducible default shift epsilon * rho-dual."""
    rho = weighted_root_sum(system)
    two_alpha_rho = [2 * system.pairing(al, rho) for al in system.roots]
    small = mode is Mode.SMALL_IN_CHAMBER
    signs_ok = all(v != 0 for v in two_alpha_rho) and not (
        small and any(system.pairing(beta, rho) <= 0 for beta in system.simple_roots)
    )
    candidates = range(1, MAX_DENOMINATOR_INDEX + 1) if signs_ok else ()
    for d in candidates:
        eps = Fraction(1, 2 * d + 1)
        values = [eps * v for v in two_alpha_rho]
        if any(v.denominator == 1 for v in values):
            continue
        if small and any(abs(v) >= Fraction(1, 2) for v in values):
            continue
        return validate_generic(system, lattice, scale(eps, rho), mode, radius)
    raise InvariantViolation("no canonical shift found; data is degenerate")
