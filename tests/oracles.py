"""The generic ``Fraction`` constructions that closed forms replaced, kept as oracles.

``build_triple`` and ``plane_model`` below are the triangle model's exact
half as it was before the closed forms: every subspace certified per call
and every intersection found by elimination.  The differential tests
compare the closed forms in ``rootquilt.triangle`` with them.
"""

from fractions import Fraction

from rootquilt.errors import Degenerate, InvariantViolation
from rootquilt.indices import MonotoneData
from rootquilt.lattice import GenericShift
from rootquilt.linalg import Vec, add, matrix_rank, rref, solve_unique, sub, vec, zero_vec
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
