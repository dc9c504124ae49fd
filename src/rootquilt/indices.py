"""Closed-form index, filtration, and area quantities.

Everything here is a finite sum over a positive system: the Fredholm index
of a quilt datum as a difference of floor sums, the positivity certificate
for the ugly class, the fractional-part filtration on the Weyl group, the
Morse indices of the height function, and the parity bookkeeping that
decides when differentials are forced to vanish.

Degrees are relative: only differences of floor sums are meaningful, so a
fixed sign convention (floor sum over the positive system of w X0) is used
throughout and no absolute grading is exposed.

The per-datum functions evaluate each quantity directly in exact rational
arithmetic.  ``IndexTable`` holds the same quantities over a whole window,
built once per shift, as integers apart from the |W| filtration weights; the
suite's sweeps and the ring certificates read the table, and the per-datum
functions remain its oracles.  The table also certifies the action identity
by linearity, which decides the implication and area sweeps without a
per-generator action.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import FloorBoundary, InvariantViolation, ModeMismatch, NotDominant, NotUgly
from .lattice import GenericShift, Mode, weighted_root_sum
from .linalg import Vec, add, gram_pair, scale, vec
from .roots import RestrictedRootSystem, WeylElement


@dataclass(frozen=True)
class MonotoneData:
    """The proportionality data tying symplectic area to the Maslov index.

    ``rho`` is the multiplicity-weighted sum of positive roots as a vector
    and ``x0`` = 2 tau rho, so that pairing with x0 equals
    2 tau * sum_alpha m_alpha alpha(-) identically.
    """

    system: RestrictedRootSystem
    tau: Fraction
    rho: Vec
    x0: Vec


def default_tau(system: RestrictedRootSystem) -> Fraction:
    """Normalization making the smallest simple value alpha(X0) equal one."""
    rho = weighted_root_sum(system)
    smallest = min(system.pairing(beta, rho) for beta in system.simple_roots)
    return Fraction(1, 2) / smallest


def monotone_data(system: RestrictedRootSystem, tau: Fraction | None = None) -> MonotoneData:
    tau = default_tau(system) if tau is None else Fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    rho = weighted_root_sum(system)
    for beta in system.simple_roots:
        if system.pairing(beta, rho) <= 0:
            raise NotDominant(f"weighted root sum fails dominance at {beta}")
    x0 = scale(2 * tau, rho)
    # The defining identity, verified exactly on the coordinate basis.
    for j in range(system.rank):
        e = vec([1 if i == j else 0 for i in range(system.rank)])
        lhs = gram_pair(system.gram, e, x0)
        rhs = 2 * tau * sum(
            system.mult[al] * system.pairing(al, e) for al in system.positive_roots
        )
        if lhs != rhs:
            raise InvariantViolation("monotone identity failed on a basis vector")
    return MonotoneData(system, tau, rho, x0)


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


@dataclass(frozen=True)
class QuiltDatum:
    """Input chord, output chamber element, output chord, and the shift.

    Both chords must be lattice points inside the shift's validated window,
    which is what rules out floor boundaries in the index sums.
    """

    shift: GenericShift
    q_in: Vec
    w_out: WeylElement
    q_out: Vec

    def __post_init__(self):
        r2 = self.shift.window_radius * self.shift.window_radius
        for q in (self.q_in, self.q_out):
            if not self.shift.lattice.contains(q):
                raise InvariantViolation(f"{q} is not a lattice point")
            if self.shift.system.norm2(q) > r2:
                raise InvariantViolation(f"{q} lies outside the validated window")


def quilt_index(d: QuiltDatum) -> int:
    """Fredholm index: floor sum at the input minus floor sum at the output.

    The input chamber element is determined by the input chord, via the
    chamber containing q_in + a.
    """
    system = d.shift.system
    w_in = system.chamber_of(add(d.q_in, d.shift.a))
    return relative_degree(w_in, d.q_in, d.shift) - relative_degree(d.w_out, d.q_out, d.shift)


class QuiltClass(enum.Enum):
    BAD = "bad"
    UGLY = "ugly"


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


def zero_index_implication(
    d_in: tuple[Vec, WeylElement],
    d_out: tuple[Vec, WeylElement],
    shift: GenericShift,
    md: MonotoneData,
) -> bool:
    """Arithmetic form of the energy gap: index zero plus a strict action
    drop forces a strict filtration drop.

    Returns True when the implication holds for the pair of data; a False
    would expose an inconsistency between the floor sums, the fractional
    sums, and the monotone pairing.  ``verify`` never calls it: it checks
    every pair at once through ``IndexTable.certify_implication``, and this
    per-pair form stays the oracle of that certificate.
    """
    system = shift.system
    q_in, w_in = d_in
    q_out, w_out = d_out
    x_in = w_in(md.x0)
    x_out = w_out(md.x0)
    floor_in = relative_degree(w_in, q_in, shift)
    floor_out = relative_degree(w_out, q_out, shift)
    if floor_in != floor_out:
        return True
    action_in = gram_pair(system.gram, add(q_in, shift.a), x_in)
    action_out = gram_pair(system.gram, add(q_out, shift.a), x_out)
    if action_in <= action_out:
        return True
    return filtration_weight(w_in, shift) > filtration_weight(w_out, shift)


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
    ``IndexTable.certify_implication`` proves the count is 0, and this
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


def capping_maslov(system: RestrictedRootSystem, q: Vec) -> int:
    """Maslov index of the capping class q: minus twice the weighted sum.

    The oracle of ``IndexTable.maslov``, which ``verify`` reads instead.
    """
    total = -2 * sum(
        (system.mult[al] * system.pairing(al, q) for al in system.positive_roots),
        Fraction(0),
    )
    if total.denominator != 1:
        raise InvariantViolation("capping Maslov index is not an integer; lattice data invalid")
    return int(total)


def capping_area(q: Vec, md: MonotoneData) -> Fraction:
    """Symplectic area of the capping class q; equals tau times the Maslov index.

    Computed as a Fraction pairing and checked against ``capping_maslov``.
    The oracle of ``IndexTable.certify_area``: ``verify`` reads
    tau * ``IndexTable.maslov`` instead.
    """
    area = -gram_pair(md.system.gram, q, md.x0)
    if area != md.tau * capping_maslov(md.system, q):
        raise InvariantViolation("area-index proportionality failed")
    return area


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


@dataclass(frozen=True)
class ParityReport:
    """Parity census of relative degrees over a window."""

    all_multiplicities_even: bool
    even_degrees: int
    odd_degrees: int
    min_degree: int
    max_degree: int
    differential_must_vanish: bool | None  # None means undetermined

    @property
    def verdict(self) -> str:
        if self.differential_must_vanish is True:
            return "true"
        return "undetermined"


def parity_report(shift: GenericShift, coefficients: str = "Z") -> ParityReport:
    """Census of relative degrees deg(w, q) over the validated window.

    With every multiplicity even the degrees are all even and the
    differential vanishes for any coefficients.  Otherwise vanishing is
    undetermined here, unless working over the two-element field, which the
    ``coefficients`` flag selects.
    """
    system = shift.system
    degrees = [
        relative_degree(w, q, shift)
        for w in system.weyl_group()
        for q in shift.window_points()
    ]
    return _parity(system.mult.values(), degrees, coefficients)


def _parity(mults: Iterable[int], degrees: Sequence[int], coefficients: str) -> ParityReport:
    all_even = all(m % 2 == 0 for m in mults)
    even = sum(1 for d in degrees if d % 2 == 0)
    odd = len(degrees) - even
    if all_even:
        if odd:
            raise InvariantViolation("odd degree found although every multiplicity is even")
        vanish: bool | None = True
    elif coefficients.upper() == "Z2":
        vanish = True
    else:
        vanish = None
    return ParityReport(all_even, even, odd, min(degrees), max(degrees), vanish)


class IndexTable:
    """Exact tables of one generic shift over its window.

    Since 2*alpha(q) is an integer at every lattice point q, the floor terms
    f[q][alpha] = floor(2*alpha(q + a)) = 2*alpha(q) + floor(2*alpha(a)) are
    integers read off two tables, and every per-datum quantity of ``verify``
    is an integer sum over root indices:

    - deg(w, q) = sum over R+(w) of m_alpha f[q][alpha];
    - q + a lies in the chamber of the w whose positive system is the set of
      roots with f[q][alpha] >= 0, found by its sign mask;
    - the ugly index of (q, w) is the sum over R+(w_in) minus R+(w) of
      m_alpha (2 f[q][alpha] + 1), where w_in is the chamber of q + a.

    The filtration weight fil(w), the sum over R+(w) of m_alpha
    frac(2*alpha(a)), is kept as one rational per chamber element.

    The action of a generator is linear too.  Pairing with w x0 is tau times
    the sum over R+(w) of m_alpha 2*alpha(-), by the W-invariance of the Gram
    form and of the multiplicities, so the action <q + a, w x0> equals
    tau * (deg(w, q) + fil(w)).  ``certify_implication`` and ``certify_area``
    check this identity on the lattice basis and at a, with rank + 1
    pairings per chamber element, and ``maslov`` holds the capping Maslov
    index of every window point as an integer.

    The window is a Gram ball in a W-stable lattice, so each w permutes it.
    Since 2 alpha(w q) = 2 (w^-1 alpha)(q), the row of w(q) is the row of q
    read through the root permutation of w^-1, and the rows determine the
    points; ``perms[k][iq]`` is the index of w_k(q) found that way.

    Window points are indexed in ``shift.window_points()`` order, chamber
    elements in Weyl group order and roots in ``system.roots`` order.  The
    per-datum functions of this module are the oracles these tables answer
    for.
    """

    def __init__(self, shift: GenericShift):
        system = shift.system
        roots = system.roots
        group = self._group = system.weyl_group()
        two_alpha_a = [2 * system.pairing(al, shift.a) for al in roots]
        for al, t in zip(roots, two_alpha_a):
            if t.denominator == 1:
                raise FloorBoundary(al, shift.a)
        self._gram = system.gram
        self._lattice = shift.lattice
        self._a = shift.a
        self.dim_lambda = system.dim_lambda()
        self.small = shift.mode is Mode.SMALL_IN_CHAMBER
        self.mult: tuple[int, ...] = tuple(system.mult[al] for al in roots)
        self.floor_a: tuple[int, ...] = tuple(math.floor(t) for t in two_alpha_a)
        # P[q][alpha] = 2*alpha(q), one row per window point
        self.two_alpha_q = [shift.lattice.two_alpha(q) for q in shift.window_points()]
        self.positive = group.positive
        self.floors = [
            tuple(p + f for p, f in zip(row, self.floor_a)) for row in self.two_alpha_q
        ]
        self.chambers = [
            group.by_mask[sum(1 << i for i, f in enumerate(row) if f >= 0)] for row in self.floors
        ]
        self.degrees = [
            [sum(self.mult[i] * row[i] for i in pos) for pos in self.positive]
            for row in self.floors
        ]
        self.filtration: list[Fraction] = [
            sum((self.mult[i] * (two_alpha_a[i] - self.floor_a[i]) for i in pos), Fraction(0))
            for pos in self.positive
        ]

    @cached_property
    def inverses(self) -> list[int]:
        """inverses[k] is the index of w_k^-1."""
        position = {w: k for k, w in enumerate(self._group)}
        return [position[self._group.inverse(w)] for w in self._group]

    @cached_property
    def perms(self) -> list[tuple[int, ...]]:
        """perms[k][iq] is the index of w_k(q) among the window points."""
        index = {row: iq for iq, row in enumerate(self.two_alpha_q)}
        elements = self._group.elements
        out = []
        for w, k in zip(elements, self.inverses):
            read = itemgetter(*elements[k].perm)
            try:
                out.append(tuple(index[read(row)] for row in self.two_alpha_q))
            except KeyError:
                raise InvariantViolation(f"{w.name} moves a window point off the window") from None
        return out

    @cached_property
    def maslov(self) -> list[int]:
        """``capping_maslov`` of every window point: minus the sum over R+ of
        m_alpha 2*alpha(q).  The identity comes first in group order, so R+ is
        ``positive[0]``."""
        base = self.positive[0]
        return [-sum(self.mult[i] * row[i] for i in base) for row in self.two_alpha_q]

    def _pairs_on_basis(self, x: Vec, pos: Sequence[int], tau: Fraction) -> bool:
        """Whether <b, x> = tau * sum over pos of m_alpha 2*alpha(b) at every
        lattice basis vector b; both sides are linear in b, so then at every
        lattice point."""
        two_alpha_b = self._lattice.two_alpha_basis
        return all(
            gram_pair(self._gram, b, x) == tau * sum(self.mult[i] * two_alpha_b[i][j] for i in pos)
            for j, b in enumerate(self._lattice.basis)
        )

    def certify_implication(self, x0_images: Sequence[Vec], tau: Fraction) -> bool:
        """Whether no pair of generators can violate ``zero_index_implication``.

        ``x0_images[k]`` is w_k(x0).  Checks, for every chamber element, the
        action identity <q + a, w_k x0> = tau * (deg(w_k, q) + fil(w_k)) on
        the lattice basis and at a: both sides are affine in the integer
        basis coordinates of q, since deg(w_k, q) is the sum over R+(w_k) of
        m_alpha (2*alpha(q) + floor(2*alpha(a))), so these |W| * (rank + 1)
        pairings prove it at every generator.  With tau > 0, equal degrees
        and a strict action drop then force a strict filtration drop, so
        ``implication_violations`` of the generators' rows is (0, None).
        False means only that the certificate failed, not that some pair
        violates the implication.
        """
        if tau <= 0:
            return False
        for pos, x, fil in zip(self.positive, x0_images, self.filtration, strict=True):
            if not self._pairs_on_basis(x, pos, tau):
                return False
            floor_sum = sum(self.mult[i] * self.floor_a[i] for i in pos)
            if gram_pair(self._gram, self._a, x) != tau * (floor_sum + fil):
                return False
        return True

    def certify_area(self, x0: Vec, tau: Fraction) -> bool:
        """Whether ``capping_area`` equals tau * ``maslov`` at every window point.

        Checks -<b, x0> = tau * mu(b) on the lattice basis, which proves it
        everywhere by linearity.  mu(-q) = -mu(q) needs no check: ``maslov``
        is linear in the integers 2*alpha(q).
        """
        return self._pairs_on_basis(x0, self.positive[0], tau)

    def ugly_index(self, iq: int, iw: int) -> int:
        """``ugly_index`` of window point iq against chamber element iw."""
        w_in = self.chambers[iq]
        if w_in == iw:
            raise NotUgly("datum is bad, not ugly")
        row = self.floors[iq]
        flipped = [i for i in self.positive[w_in] if i not in self.positive[iw]]
        total = sum(self.mult[i] * (2 * row[i] + 1) for i in flipped)
        if total != self.degrees[iq][w_in] - self.degrees[iq][iw]:
            raise InvariantViolation("ugly index disagrees with the quilt index")
        if total <= 0:
            raise InvariantViolation("ugly index failed strict positivity")
        return total

    def morse_index(self, iw: int) -> int:
        """``morse_index`` of chamber element iw."""
        if not self.small:
            raise ModeMismatch("morse_index requires a small-in-chamber shift")
        pos = self.positive[iw]
        by_count = sum(self.mult[i] for i in pos if self.floor_a[i] < 0)
        by_floor = -sum(self.mult[i] * self.floor_a[i] for i in pos)
        if by_count != by_floor:
            raise InvariantViolation("the two Morse index formulas disagree")
        return by_count

    def poincare_polynomial(self) -> list[int]:
        """``poincare_polynomial`` of the shift."""
        morse = [self.morse_index(iw) for iw in range(len(self.positive))]
        return _poincare(self.dim_lambda, morse)

    def parity_report(self, coefficients: str = "Z") -> ParityReport:
        """``parity_report`` of the shift."""
        return _parity(self.mult, [d for row in self.degrees for d in row], coefficients)


def index_table(shift: GenericShift) -> IndexTable:
    """The integer tables of ``shift``, built on first use and kept on it."""
    if shift._table is None:
        shift._table = IndexTable(shift)
    return shift._table
