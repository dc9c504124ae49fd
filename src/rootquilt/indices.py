"""Closed-form index, filtration, and area quantities.

Everything here is a finite sum over a positive system: the Fredholm index
of a quilt datum as a difference of floor sums, the positivity certificate
for the ugly class, the fractional-part filtration on the Weyl group, the
Morse indices of the height function, and the parity bookkeeping that
decides when differentials are forced to vanish.

Degrees are relative: only differences of floor sums are meaningful, so a
fixed sign convention (floor sum over the positive system of w X0) is used
throughout and no absolute grading is exposed.

Each per-generator quantity has one implementation: a read of the shift's
``IndexTable``, integer floor sums over root indices plus one rational
filtration weight per chamber element.  A per-datum call (``classify``,
``relative_degree``, ``quilt_index``, ``ugly_index``, ``filtration_weight``,
``morse_index``) reads per-root data and never enumerates the window, whose
tables the suite's sweeps and the ring certificates build on first read.
The table also certifies the action identity by linearity, which decides
the implication and area sweeps without a per-generator action.  The direct
``Fraction`` formulas are the oracles of the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from .errors import InvariantViolation, ModeMismatch, NotDominant, NotUgly
from .lattice import GenericShift, Mode, reject_floor_boundaries, weighted_root_sum
from .linalg import Scalar, Vec, _vec_text, add, div, dot, exact, gram_pair, mat_vec, scale, vec
from .roots import RestrictedRootSystem, WeylElement


@dataclass(frozen=True)
class MonotoneData:
    """The proportionality data tying symplectic area to the Maslov index.

    ``rho`` is the multiplicity-weighted sum of positive roots as a vector
    and ``x0`` = 2 tau rho, so that pairing with x0 equals
    2 tau * sum_alpha m_alpha alpha(-) identically.
    """

    system: RestrictedRootSystem
    tau: Scalar
    rho: Vec
    x0: Vec


def default_tau(system: RestrictedRootSystem) -> Scalar:
    """Normalization making the smallest simple value alpha(X0) equal one."""
    rho = weighted_root_sum(system)
    smallest = min(system.pairing(beta, rho) for beta in system.simple_roots)
    return div(1, 2 * smallest)


def monotone_data(system: RestrictedRootSystem, tau: Scalar | None = None) -> MonotoneData:
    tau = default_tau(system) if tau is None else exact(tau)
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


def relative_degree(w: WeylElement, q: Vec, shift: GenericShift) -> int:
    """Floor sum of 2 alpha(q + a) over the positive system of w X0.

    q must be a lattice point: another point raises InvariantViolation.
    """
    table = index_table(shift)
    return table.degree(table.position[w], table.floors_at(q))


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
                raise InvariantViolation(f"{_vec_text(q)} is not a lattice point")
            if self.shift.system.norm2(q) > r2:
                raise InvariantViolation(f"{_vec_text(q)} lies outside the validated window")


def quilt_index(d: QuiltDatum) -> int:
    """Fredholm index: floor sum at the input minus floor sum at the output.

    The input chamber element is determined by the input chord, via the
    chamber containing q_in + a.
    """
    table = index_table(d.shift)
    row_in, row_out = table.floors_at(d.q_in), table.floors_at(d.q_out)
    deg_in = table.degree(table.chamber_index(row_in), row_in)
    return deg_in - table.degree(table.position[d.w_out], row_out)


class QuiltClass(enum.Enum):
    BAD = "bad"
    UGLY = "ugly"


def classify(q: Vec, w: WeylElement, shift: GenericShift) -> QuiltClass:
    """Bad when q + a lies in the w-image of the base chamber, else ugly.

    q must be a lattice point: another point raises InvariantViolation.
    """
    table = index_table(shift)
    bad = table.chamber_index(table.floors_at(q)) == table.position[w]
    return QuiltClass.BAD if bad else QuiltClass.UGLY


def ugly_index(q: Vec, w: WeylElement, shift: GenericShift) -> int:
    """Index of an ugly datum: deg(w_in, q) - deg(w, q), with w_in the
    chamber element of q + a.

    The quilt index of the diagonal datum (q_in = q_out = q, w_out = w),
    strictly positive by the proof in ``IndexTable``.  q must be a lattice
    point: another point raises InvariantViolation.
    """
    table = index_table(shift)
    row = table.floors_at(q)
    w_in, k = table.chamber_index(row), table.position[w]
    if w_in == k:
        raise NotUgly("datum is bad, not ugly")
    return table.degree(w_in, row) - table.degree(k, row)


def filtration_weight(w: WeylElement, shift: GenericShift) -> Scalar:
    """Multiplicity-weighted fractional parts of 2 alpha(a) over R+ of w X0."""
    table = index_table(shift)
    return table.filtration[table.position[w]]


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


def capping_maslov(system: RestrictedRootSystem, q: Vec) -> int:
    """Maslov index of the capping class q: minus twice the weighted sum.

    The oracle of ``IndexTable.maslov``, which ``verify`` reads instead.
    """
    total = -2 * sum(system.mult[al] * system.pairing(al, q) for al in system.positive_roots)
    if total.denominator != 1:
        raise InvariantViolation("capping Maslov index is not an integer; lattice data invalid")
    return int(total)


def capping_area(q: Vec, md: MonotoneData) -> Scalar:
    """Symplectic area of the capping class q; equals tau times the Maslov index.

    Computed as an exact pairing and checked against ``capping_maslov``.
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
    table = index_table(shift)
    return table.morse_index(table.position[w])


def poincare_polynomial(shift: GenericShift) -> list[int]:
    """Coefficient k counts chamber elements of Morse index k."""
    table = index_table(shift)
    coeffs = [0] * (shift.system.dim_lambda() + 1)
    for iw in range(len(table.positive)):
        coeffs[table.morse_index(iw)] += 1
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
    table = index_table(shift)
    all_even = all(m % 2 == 0 for m in table.mult)
    degrees = [d for row in table.degrees for d in row]
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
    """Exact tables of one generic shift, per root and over its window.

    Since 2*alpha(q) is an integer at every lattice point q, the floor terms
    f[q][alpha] = floor(2*alpha(q + a)) = 2*alpha(q) + floor(2*alpha(a)) are
    integers read off two tables, and every per-datum quantity is an integer
    sum over root indices:

    - deg(w, q) = sum over R+(w) of m_alpha f[q][alpha];
    - q + a lies in the chamber of the w whose positive system is the set of
      roots with f[q][alpha] >= 0, found by its sign mask;
    - the ugly index of (q, w) is deg(w_in, q) - deg(w, q), where w_in is
      the chamber element of q + a and w != w_in.

    The ugly index is strictly positive.  A positive system holds one of
    alpha and -alpha for every root, and the loader checks R = -R and
    m(-alpha) = m(alpha).  So R+(w) is R+(w_in) with each flipped root alpha
    (in R+(w_in) but not in R+(w)) replaced by -alpha, of the same
    multiplicity.  Off the floor boundaries floor(-x) = -floor(x) - 1, so
    the difference is the sum over the flipped alpha of
    m_alpha (2 f[q][alpha] + 1).  Since q + a lies in the chamber of w_in,
    every flipped f[q][alpha] is >= 0, and w != w_in flips at least one
    root, so the sum is at least 1.

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

    The table holds the shift fields it reads (``system``, ``lattice``,
    ``a``, ``mode`` and ``window_radius``) and no reference to the shift, so
    it may outlive it.  The constructor builds per-root data alone, from
    which ``floors_at``, ``chamber_index`` and ``degree`` answer for one
    lattice point.  The table owns the window: ``points``, the one
    enumeration per shift, and each window table are built on first read.
    Window points are indexed in ``points`` order, chamber elements in Weyl
    group order and roots in ``system.roots`` order.
    """

    def __init__(self, shift: GenericShift):
        system = self.system = shift.system
        self.lattice, self.a, self.mode = shift.lattice, shift.a, shift.mode
        self.window_radius = shift.window_radius
        roots = system.roots
        group = self._group = system.weyl_group()
        two_alpha_a = [2 * system.pairing(al, self.a) for al in roots]
        reject_floor_boundaries(roots, two_alpha_a)
        self.mult: tuple[int, ...] = tuple(system.mult[al] for al in roots)
        self.floor_a: tuple[int, ...] = tuple(math.floor(t) for t in two_alpha_a)
        self.positive = group.positive
        self.position: dict[WeylElement, int] = {w: k for k, w in enumerate(group)}
        den = math.lcm(*(t.denominator for t in two_alpha_a))
        frac_num = [int((t - f) * den) for t, f in zip(two_alpha_a, self.floor_a)]
        self.filtration: list[Scalar] = [
            div(sum(self.mult[i] * frac_num[i] for i in pos), den) for pos in self.positive
        ]

    def floors_at(self, q: Vec) -> tuple[int, ...]:
        """floor(2*alpha(q + a)) for every root, at a lattice point q."""
        return tuple(p + f for p, f in zip(self.lattice.two_alpha(q), self.floor_a))

    def chamber_index(self, floors: Sequence[int]) -> int:
        """The k with q + a in the chamber of w_k, from the floors of q."""
        return self._group.by_mask[sum(1 << i for i, f in enumerate(floors) if f >= 0)]

    def degree(self, k: int, floors: Sequence[int]) -> int:
        """deg(w_k, q) from the floors of q."""
        return sum(self.mult[i] * floors[i] for i in self.positive[k])

    @cached_property
    def points(self) -> list[Vec]:
        """The window: the lattice points of Gram norm at most ``window_radius``."""
        return self.lattice.points(self.window_radius)

    @cached_property
    def two_alpha_q(self) -> list[tuple[int, ...]]:
        """two_alpha_q[iq][alpha] = 2*alpha(q), one row per window point."""
        return [self.lattice.two_alpha(q) for q in self.points]

    @cached_property
    def floors(self) -> list[tuple[int, ...]]:
        return [tuple(p + f for p, f in zip(row, self.floor_a)) for row in self.two_alpha_q]

    @cached_property
    def chambers(self) -> list[int]:
        return [self.chamber_index(row) for row in self.floors]

    @cached_property
    def degrees(self) -> list[list[int]]:
        return [
            [sum(self.mult[i] * row[i] for i in pos) for pos in self.positive]
            for row in self.floors
        ]

    @cached_property
    def inverses(self) -> list[int]:
        """inverses[k] is the index of w_k^-1."""
        return [self.position[self._group.inverse(w)] for w in self._group]

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

    # The Gram matrix G is symmetric, so <v, x> = (G v) . x: each comparison
    # of the certificates is one dot product against a covector built once.

    @cached_property
    def _basis_covectors(self) -> tuple[Vec, ...]:
        """G b for every lattice basis vector b."""
        return tuple(mat_vec(self.system.gram, b) for b in self.lattice.basis)

    @cached_property
    def _a_covector(self) -> Vec:
        """G a for the shift a."""
        return mat_vec(self.system.gram, self.a)

    def _pairs_on_basis(self, x: Vec, pos: Sequence[int], tau: Scalar) -> bool:
        """Whether <b, x> = tau * sum over pos of m_alpha 2*alpha(b) at every
        lattice basis vector b; both sides are linear in b, so then at every
        lattice point."""
        two_alpha_b = self.lattice.two_alpha_basis
        return all(
            dot(gb, x) == tau * sum(self.mult[i] * two_alpha_b[i][j] for i in pos)
            for j, gb in enumerate(self._basis_covectors)
        )

    def certify_implication(self, x0_images: Sequence[Vec], tau: Scalar) -> bool:
        """Whether no pair of generators can violate ``zero_index_implication``.

        ``x0_images[k]`` is w_k(x0).  Checks, for every chamber element, the
        action identity <q + a, w_k x0> = tau * (deg(w_k, q) + fil(w_k)) on
        the lattice basis and at a: both sides are affine in the integer
        basis coordinates of q, since deg(w_k, q) is the sum over R+(w_k) of
        m_alpha (2*alpha(q) + floor(2*alpha(a))), so these |W| * (rank + 1)
        pairings prove it at every generator.  With tau > 0, equal degrees
        and a strict action drop then force a strict filtration drop, so
        no pair of generators violates the implication.
        False means only that the certificate failed, not that some pair
        violates the implication.
        """
        if tau <= 0:
            return False
        for pos, x, fil in zip(self.positive, x0_images, self.filtration, strict=True):
            if not self._pairs_on_basis(x, pos, tau):
                return False
            floor_sum = sum(self.mult[i] * self.floor_a[i] for i in pos)
            if dot(self._a_covector, x) != tau * (floor_sum + fil):
                return False
        return True

    def certify_area(self, x0: Vec, tau: Scalar) -> bool:
        """Whether ``capping_area`` equals tau * ``maslov`` at every window point.

        Checks -<b, x0> = tau * mu(b) on the lattice basis, which proves it
        everywhere by linearity.  mu(-q) = -mu(q) needs no check: ``maslov``
        is linear in the integers 2*alpha(q).
        """
        return self._pairs_on_basis(x0, self.positive[0], tau)

    def morse_index(self, iw: int) -> int:
        """``morse_index`` of chamber element iw."""
        if self.mode is not Mode.SMALL_IN_CHAMBER:
            raise ModeMismatch("morse_index requires a small-in-chamber shift")
        pos = self.positive[iw]
        by_count = sum(self.mult[i] for i in pos if self.floor_a[i] < 0)
        by_floor = -sum(self.mult[i] * self.floor_a[i] for i in pos)
        if by_count != by_floor:
            raise InvariantViolation("the two Morse index formulas disagree")
        return by_count


def index_table(shift: GenericShift) -> IndexTable:
    """The integer tables of ``shift``, built on first use and kept on it."""
    if shift._table is None:
        shift._table = IndexTable(shift)
    return shift._table
