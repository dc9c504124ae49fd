"""The constructions that closed forms and faster paths replaced, kept as oracles.

``build_triple`` and ``plane_model`` below are the triangle model's exact
half as it was before the closed forms: every subspace certified per call
and every intersection found by elimination.  ``jacobi_pair`` is the Jacobi
recurrence as it was before it ran in place, ``segment_breaks`` the panel
grading of the triangle map's path integrals before it followed the
Gauss-Legendre error bound, ``mobius_through`` the Mobius coefficients by a
LAPACK inverse, as they were before the closed-form adjugate,
``leading_minors_positive`` the Sylvester test as it was before it ran in
one elimination, with ``det`` per leading minor, and ``canonical_shift`` the
epsilon scan as it was before it ran in integers.  ``newton_gauss_jacobi``
is the Gauss-Jacobi rule as it was built before Halley steps: Newton steps
until every step is below 1e-15, then one more recurrence pass for the
weights.

The per-datum index quantities (``relative_degree``, ``classify``,
``quilt_index``, ``ugly_index``, ``filtration_weight``, ``morse_index``,
``poincare_polynomial``, ``parity_report`` and ``leading_term``) are the
direct ``Fraction`` formulas that ``rootquilt`` replaced by reads of the
shift's integer index table, each evaluated from the roots, the pairing
and ``chamber_of``.  Unlike the table they accept any point, on the lattice
or not.  ``implication_violations`` and ``add_implication_sweep`` are the
quadratic pair loop that the implication certificate replaced, and
``chamber_witnesses`` the first window point in each chamber, found by
``chamber_of``.  The differential tests compare the code in ``rootquilt``
with all of them.

``dot``, ``reflect`` and ``close_orbits`` are the exact kernel as it was
before it kept integral values as ``int``: every scalar a ``Fraction``.
``weyl_action``, ``reflection_matrix``, ``segment_in_closed_chamber``,
``embed`` (once ``PlaneModel.embed``), ``coordinates`` (once
``PlaneModel.coordinates``), ``map_point`` (once
``TriangleMapSolution.map_point``), ``multiply`` (once
``WeylGroup.multiply``), ``length`` (once ``RestrictedRootSystem.length``)
and ``solve_unique`` (once ``linalg.solve_unique``) were public helpers that
no command reached; the tests that used them keep them here.
"""

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from rootquilt.errors import (
    Degenerate,
    FloorBoundary,
    InvariantViolation,
    LatticeNotStable,
    ModeMismatch,
    NotUgly,
    QuadratureNotConverged,
)
from rootquilt.indices import MonotoneData, ParityReport, QuiltClass, QuiltDatum
from rootquilt.lattice import (
    MAX_DENOMINATOR_INDEX,
    GenericShift,
    Lattice,
    Mode,
    validate_generic,
    weighted_root_sum,
)
from rootquilt.linalg import (
    Mat,
    Vec,
    _vec_text,
    add,
    format_vec,
    gram_pair,
    identity,
    leading_minors_positive,
    mat_vec,
    matrix_rank,
    rref,
    scale,
    sub,
    vec,
    zero_vec,
)
from rootquilt.ring import LeadingTerm
from rootquilt.roots import RestrictedRootSystem, WeylElement, WeylGroup
from rootquilt.suite import Report
from rootquilt.triangle import (
    _NEWTON_STEPS,
    _NEWTON_TOL,
    AffineLagrangianTriple,
    AffineSubspace,
    PlaneModel,
    _jacobi_pair,
    _sympl,
)


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
        if coordinates(model, p) != (Fraction(x), Fraction(y)):
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


def coordinates(model: PlaneModel, p: Vec) -> tuple[Fraction, Fraction]:
    rows = [vec([u, v]) for u, v in zip(model.u_dir, model.v_dir)]
    sol = solve_unique(rows, sub(p, model.base))
    if sol is None:
        raise Degenerate("point is not on the model plane")
    return sol[0], sol[1]


def embed(model: PlaneModel, x: Fraction, y: Fraction) -> Vec:
    return add(
        model.base,
        add(tuple(x * c for c in model.u_dir), tuple(y * c for c in model.v_dir)),
    )


def segment_in_closed_chamber(
    system: RestrictedRootSystem, w: WeylElement, start: Vec, end: Vec
) -> bool:
    """Whether the segment lies in the closed w-chamber (convexity: endpoints suffice)."""
    pos = system.positive_system(w(system.base_point))
    return all(
        system.pairing(al, p) >= 0 for al in pos for p in (start, end)
    )


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


def newton_gauss_jacobi(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for (1 - x)^alpha on [-1, 1].

    The nodes are the roots of P_n^(alpha, 0), reached by vectorized Newton
    steps from x_k = cos(pi (4k - 1 + 2 alpha) / (4n + 2 alpha + 2)); the
    weights are proportional to 1 / ((1 - x^2) P_n'(x)^2), scaled to the
    exact mass 2^(alpha + 1) / (alpha + 1).  Newton steps that do not settle
    below 1e-15 within the step cap, or nodes that are not strictly
    increasing inside (-1, 1), raise ``QuadratureNotConverged``.  The
    arrays are read-only.
    """
    k = np.arange(1, n + 1)
    x = np.cos(math.pi * (4 * k - 1 + 2 * alpha) / (4 * n + 2 * alpha + 2))
    moved = math.inf
    for _ in range(_NEWTON_STEPS):
        p, dp = _jacobi_pair(n, alpha, x)
        step = p / dp
        x = x - step
        moved = float(np.max(np.abs(step)))
        if moved < _NEWTON_TOL:
            break
    else:
        raise QuadratureNotConverged(moved, _NEWTON_TOL)
    x = np.sort(x)
    if not (x[0] > -1.0 and x[-1] < 1.0 and np.all(np.diff(x) > 0)):
        raise QuadratureNotConverged(
            moved, _NEWTON_TOL, f"Gauss-Jacobi nodes for n={n}, alpha={alpha} are not "
            "strictly increasing inside (-1, 1)"
        )
    _, dp = _jacobi_pair(n, alpha, x)
    w = 1.0 / ((1.0 - x * x) * dp * dp)
    w *= 2.0 ** (alpha + 1.0) / (alpha + 1.0) / np.sum(w)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def map_point(sol, z: complex) -> complex:
    """Image of a disk point; the real and imaginary parts are (x, y)."""
    return sol.map_points(np.array([z]))[0]


def segment_breaks(dist: float) -> np.ndarray:
    """Dyadic refinement of [0, 1] toward t = 1, tuned to the distance
    between the path endpoint and the nearest prevertex."""
    if dist >= 0.5:
        levels = 4
    else:
        levels = min(52, 4 + int(math.ceil(math.log2(2.0 / max(dist, 1e-15)))))
    pts = [0.0] + [1.0 - 0.5**j for j in range(1, levels + 1)] + [1.0]
    return np.array(pts)


def mobius_through(src: tuple[complex, complex, complex], dst: tuple[complex, complex, complex]):
    """Coefficients of the Mobius map sending the source triple to the target."""

    def ratio_matrix(z1, z2, z3):
        return np.array(
            [[z2 - z3, -z1 * (z2 - z3)], [z2 - z1, -z3 * (z2 - z1)]], dtype=complex
        )

    ms = ratio_matrix(*src)
    mt = ratio_matrix(*dst)
    m = np.linalg.inv(mt) @ ms
    return m[0, 0], m[0, 1], m[1, 0], m[1, 1]


# -- the Sylvester test -------------------------------------------------------


def leading_minors_positive(m: Mat) -> bool:
    """Sylvester test for positive definiteness."""
    n = len(m)
    return all(det(tuple(row[: k + 1] for row in m[: k + 1])) > 0 for k in range(n))


def det(m: Mat) -> Fraction:
    n = len(m)
    a = [list(row) for row in m]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            f = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return result


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


# -- the per-datum index quantities -------------------------------------------


def _floor_term(system: RestrictedRootSystem, alpha: Vec, point: Vec) -> int:
    value = 2 * system.pairing(alpha, point)
    if value.denominator == 1:
        raise FloorBoundary(alpha, point)
    return math.floor(value)


def relative_degree(w: WeylElement, q: Vec, shift: GenericShift) -> int:
    """Floor sum of 2 alpha(q + a) over the positive system of w X0."""
    system = shift.system
    qa = add(q, shift.a)
    pos = system.chamber_positive_system(w)
    return sum(system.mult[al] * _floor_term(system, al, qa) for al in pos)


def quilt_index(d: QuiltDatum) -> int:
    """Fredholm index: floor sum at the input minus floor sum at the output.

    The input chamber element is determined by the input chord, via the
    chamber containing q_in + a.
    """
    system = d.shift.system
    w_in = system.chamber_of(add(d.q_in, d.shift.a))
    return relative_degree(w_in, d.q_in, d.shift) - relative_degree(d.w_out, d.q_out, d.shift)


def classify(q: Vec, w: WeylElement, shift: GenericShift) -> QuiltClass:
    """Bad when q + a lies in the w-image of the base chamber, else ugly."""
    wq = shift.system.chamber_of(add(q, shift.a))
    return QuiltClass.BAD if wq == w else QuiltClass.UGLY


def ugly_index(q: Vec, w: WeylElement, shift: GenericShift) -> int:
    """Index of an ugly datum, as a sum over sign-changing roots.

    Strictly positive, and equal to the quilt index of the diagonal datum
    (q_in = q_out = q, w_out = w); both facts are re-checked here.
    """
    system = shift.system
    if classify(q, w, shift) is QuiltClass.BAD:
        raise NotUgly("datum is bad, not ugly")
    qa = add(q, shift.a)
    w_in = system.chamber_of(qa)
    x_out = w(system.base_point)
    total = 0
    for al in system.chamber_positive_system(w_in):
        if system.pairing(al, x_out) < 0:
            val = 2 * system.pairing(al, qa)
            if val.denominator == 1:
                raise FloorBoundary(al, q)
            total += system.mult[al] * (math.floor(val) - math.floor(-val))
    cross = quilt_index(QuiltDatum(shift, q, w, q))
    if total != cross:
        raise InvariantViolation("ugly index disagrees with the quilt index")
    if total <= 0:
        raise InvariantViolation("ugly index failed strict positivity")
    return total


def frac(x: Fraction) -> Fraction:
    return x - math.floor(x)


def filtration_weight(w: WeylElement, shift: GenericShift) -> Fraction:
    """Multiplicity-weighted fractional parts of 2 alpha(a) over R+ of w X0."""
    system = shift.system
    pos = system.chamber_positive_system(w)
    return sum(
        (system.mult[al] * frac(2 * system.pairing(al, shift.a)) for al in pos),
        Fraction(0),
    )


def morse_index(w: WeylElement, shift: GenericShift) -> int:
    """Morse index of the critical point w X0 of the height function.

    Computed two ways (negative-root multiplicity count and a floor sum)
    which must agree under the smallness hypothesis.
    """
    if shift.mode is not Mode.SMALL_IN_CHAMBER:
        raise ModeMismatch("morse_index requires a small-in-chamber shift")
    system = shift.system
    pos = system.chamber_positive_system(w)
    by_count = sum(system.mult[al] for al in pos if system.pairing(al, shift.a) < 0)
    by_floor = -sum(
        system.mult[al] * math.floor(2 * system.pairing(al, shift.a)) for al in pos
    )
    if by_count != by_floor:
        raise InvariantViolation("the two Morse index formulas disagree")
    return by_count


def poincare_polynomial(shift: GenericShift) -> list[int]:
    """Coefficient k counts chamber elements of Morse index k."""
    system = shift.system
    return _poincare(system.dim_lambda(), [morse_index(w, shift) for w in system.weyl_group()])


def _poincare(top: int, morse: Sequence[int]) -> list[int]:
    coeffs = [0] * (top + 1)
    for k in morse:
        coeffs[k] += 1
    return coeffs


def parity_report(shift: GenericShift) -> ParityReport:
    """Census of relative degrees deg(w, q) over the validated window.

    With every multiplicity even the degrees are all even and the
    differential vanishes for any coefficients.  Otherwise vanishing is
    undetermined here.
    """
    system = shift.system
    degrees = [
        relative_degree(w, q, shift)
        for w in system.weyl_group()
        for q in shift.window_points()
    ]
    return _parity(system.mult.values(), degrees)


def _parity(mults: Iterable[int], degrees: Sequence[int]) -> ParityReport:
    all_even = all(m % 2 == 0 for m in mults)
    even = sum(1 for d in degrees if d % 2 == 0)
    odd = len(degrees) - even
    if all_even:
        if odd:
            raise InvariantViolation("odd degree found although every multiplicity is even")
        vanish: bool | None = True
    else:
        vanish = None
    return ParityReport(all_even, even, odd, min(degrees), max(degrees), vanish)


ImplicationRow = tuple[int, Fraction, Fraction]  # (relative degree, action, filtration weight)


def implication_violations(rows: Sequence[ImplicationRow]) -> tuple[int, tuple[int, int] | None]:
    """Count the ordered pairs of rows on which ``zero_index_implication`` fails.

    Row i holds the relative degree, the action and the filtration weight of
    one generator.  The pair (i, j) violates the energy gap when the degrees
    agree, the action drops strictly from i to j and the filtration does not.
    Pairs of different degree hold trivially, so only pairs inside one
    degree group are compared.  Returns the violation count and the first
    violating pair in lexicographic order of (i, j), or None.

    Quadratic in the rows.  ``verify`` never runs it:
    ``GenericShift.certify_implication`` proves the count is 0, and this
    pair loop stays the certificate's oracle.
    """
    groups: dict[int, list[int]] = {}
    for i, (degree, _, _) in enumerate(rows):
        groups.setdefault(degree, []).append(i)
    violations = 0
    first: tuple[int, int] | None = None
    for members in groups.values():
        for i in members:
            _, action_in, fil_in = rows[i]
            for j in members:
                _, action_out, fil_out = rows[j]
                if action_in > action_out and not fil_in > fil_out:
                    violations += 1
                    if first is None or (i, j) < first:
                        first = (i, j)
    return violations, first


def leading_term(q: Vec, shift: GenericShift) -> LeadingTerm:
    """The chamber element of q + a and its filtration weight.

    The image of the chord q is this generator up to sign, plus terms of
    strictly smaller filtration which are not computed here.
    """
    w = shift.system.chamber_of(add(q, shift.a))
    return LeadingTerm(q, w, filtration_weight(w, shift))


def chamber_witnesses(shift: GenericShift) -> dict[WeylElement, Vec]:
    """First window point landing in each chamber, in window order."""
    witnesses: dict[WeylElement, Vec] = {}
    for q in shift.window_points():
        witnesses.setdefault(shift.system.chamber_of(add(q, shift.a)), q)
    return witnesses


def add_implication_sweep(
    report: Report, rows: list[ImplicationRow], points: list[Vec], elements: tuple[WeylElement, ...]
) -> None:
    """Report the implication over every ordered pair of generators, pair by
    pair: the oracle of ``suite._add_implication_check``, which ``verify`` runs.

    ``rows[i]`` tabulates the generator (``points[i // |W|]``,
    ``elements[i % |W|]``); a failing check names the first violating pair
    in the order of the rows.
    """
    checked = len(rows) ** 2
    violations, first = implication_violations(rows)
    report.add_row("implication", "checked", checked)
    report.add_row("implication", "holds", checked - violations)
    detail = f"{checked} data pairs"
    if first is not None:
        order = len(elements)
        (q_in, w_in), (q_out, w_out) = ((points[i // order], elements[i % order]) for i in first)
        detail += (
            f"; first violation ({w_in.name};{format_vec(q_in)})"
            f" -> ({w_out.name};{format_vec(q_out)})"
        )
    report.add_check("implication_sweep", violations == 0, detail)


# -- the all-Fraction exact kernel ---------------------------------------------


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


def reflect(g_alpha: Vec, alpha: Vec, v: Vec) -> Vec:
    """Reflection of v across the hyperplane orthogonal to alpha.

    ``g_alpha`` is the covector gram * alpha of a symmetric gram, which the
    caller computes once per root rather than once per reflection.
    """
    c = 2 * dot(g_alpha, v) / dot(g_alpha, alpha)
    return tuple(x - c * a for x, a in zip(v, alpha))


def close_orbits(gram: Mat, seeds: list[tuple[Vec, int]]) -> dict[Vec, int]:
    """Close seed roots under all reflections and assign orbit multiplicities.

    One worklist pass reflects every ordered pair of roots once, through the
    covector gram * root computed once per root found.  An image takes the
    multiplicity and seed of the root it came from; reflections keep roots
    in their Weyl orbit, so a root reached with two multiplicities means two
    declared orbits meet, and raises ``InvariantViolation``.  So does a Gram
    matrix that is not positive definite, checked after the seeds: under an
    indefinite form the reflected roots grow without bound and never close.
    """
    for s, _ in seeds:
        if all(x == 0 for x in s):
            raise InvariantViolation("zero vector cannot seed a root orbit")
        if gram_pair(gram, s, s) == 0:  # reflections keep lengths, so seeds cover every root
            raise InvariantViolation(f"seed {_vec_text(s)} has zero squared length")
    if not leading_minors_positive(gram):
        raise InvariantViolation("gram matrix is not positive definite")
    # roots[k] came from the orbit of seed_of[k] with multiplicity mults[k];
    # index is the one lookup by vector, so each image is hashed once
    index: dict[Vec, int] = {}
    roots: list[Vec] = []
    covectors: list[Vec] = []
    mults: list[int] = []
    seed_of: list[Vec] = []

    def found(root: Vec, m: int, seed: Vec) -> None:
        k = index.setdefault(root, len(roots))
        if k == len(roots):
            if k == 10_000:
                raise InvariantViolation("orbit closure did not stabilize")
            roots.append(root)
            covectors.append(mat_vec(gram, root))
            mults.append(m)
            seed_of.append(seed)
        elif mults[k] != m:
            raise InvariantViolation(f"conflicting multiplicities on orbit of {_vec_text(seed)}")

    for s, m in seeds:
        found(s, m, s)
        found(tuple(-x for x in s), m, s)
    for i, a in enumerate(roots):  # the list grows while it is walked
        for j in range(i + 1):
            found(reflect(covectors[i], a, roots[j]), mults[j], seed_of[j])
            if j < i:
                found(reflect(covectors[j], roots[j], a), mults[i], seed_of[i])
    return dict(zip(roots, mults))


# -- helpers that no command reached ---------------------------------------------


def weyl_action(lattice: Lattice, w: WeylElement, q: Vec) -> Vec:
    """Apply w to a lattice point; the image must stay on the lattice."""
    if not lattice.contains(q):
        raise LatticeNotStable(f"{_vec_text(q)} is not a lattice point")
    image = w(q)
    if not lattice.contains(image):
        raise LatticeNotStable(f"{w.name} moves {_vec_text(q)} off the lattice")
    return image


def reflection_matrix(system: RestrictedRootSystem, alpha: Vec) -> Mat:
    cols = [system.reflect(alpha, e) for e in (identity(system.rank))]
    return tuple(zip(*cols, strict=True))


def multiply(group: WeylGroup, a: WeylElement, b: WeylElement) -> WeylElement:
    return group._by_perm[tuple(a.perm[j] for j in b.perm)]


def length(system: RestrictedRootSystem, w: WeylElement) -> int:
    """Number of indivisible positive roots sent to negative ones."""
    index = {a: i for i, a in enumerate(system.roots)}
    positive = {index[a] for a in system.positive_roots}
    return sum(1 for a in system.indivisible_positive_roots if w.perm[index[a]] not in positive)


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
