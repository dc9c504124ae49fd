"""Closed-form index, filtration, and area quantities.

Everything here is a finite sum over a positive system: the Fredholm index
of a quilt datum as a difference of floor sums, the positivity certificate
for the ugly class, the fractional-part filtration on the Weyl group, the
Morse indices of the height function, and the parity bookkeeping that
decides when differentials are forced to vanish.

Degrees are relative: only differences of floor sums are meaningful, so a
fixed sign convention (floor sum over the positive system of w X0) is used
throughout and no absolute grading is exposed.

Each per-generator quantity has one implementation: a read of the
``GenericShift``'s integer tables, floor sums over root indices plus one
rational filtration weight per chamber element.  A per-datum call
(``classify``, ``relative_degree``, ``quilt_index``, ``ugly_index``,
``filtration_weight``, ``morse_index``) reads per-root data and never
enumerates the window, whose tables the suite's sweeps and the ring
certificates build on first read.  The shift also certifies the action
identity by linearity, which decides the implication and area sweeps
without a per-generator action.  The direct ``Fraction`` formulas are the
oracles of the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InvariantViolation, NotDominant, NotUgly
from .lattice import GenericShift, weighted_root_sum
from .linalg import Scalar, Vec, _vec_text, add, div, exact, gram_pair, scale, vec
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
    return shift.degree(shift.position[w], shift.floors_at(q))


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
    shift = d.shift
    row_in, row_out = shift.floors_at(d.q_in), shift.floors_at(d.q_out)
    deg_in = shift.degree(shift.chamber_index(row_in), row_in)
    return deg_in - shift.degree(shift.position[d.w_out], row_out)


class QuiltClass(enum.Enum):
    BAD = "bad"
    UGLY = "ugly"


def classify(q: Vec, w: WeylElement, shift: GenericShift) -> QuiltClass:
    """Bad when q + a lies in the w-image of the base chamber, else ugly.

    q must be a lattice point: another point raises InvariantViolation.
    """
    bad = shift.chamber_index(shift.floors_at(q)) == shift.position[w]
    return QuiltClass.BAD if bad else QuiltClass.UGLY


def ugly_index(q: Vec, w: WeylElement, shift: GenericShift) -> int:
    """Index of an ugly datum: deg(w_in, q) - deg(w, q), with w_in the
    chamber element of q + a.

    The quilt index of the diagonal datum (q_in = q_out = q, w_out = w),
    strictly positive by the proof in ``GenericShift``.  q must be a lattice
    point: another point raises InvariantViolation.
    """
    row = shift.floors_at(q)
    w_in, k = shift.chamber_index(row), shift.position[w]
    if w_in == k:
        raise NotUgly("datum is bad, not ugly")
    return shift.degree(w_in, row) - shift.degree(k, row)


def filtration_weight(w: WeylElement, shift: GenericShift) -> Scalar:
    """Multiplicity-weighted fractional parts of 2 alpha(a) over R+ of w X0."""
    return shift.filtration[shift.position[w]]


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
    every pair at once through ``GenericShift.certify_implication``, and this
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

    The oracle of ``GenericShift.maslov``, which ``verify`` reads instead.
    """
    total = -2 * sum(system.mult[al] * system.pairing(al, q) for al in system.positive_roots)
    if total.denominator != 1:
        raise InvariantViolation("capping Maslov index is not an integer; lattice data invalid")
    return int(total)


def capping_area(q: Vec, md: MonotoneData) -> Scalar:
    """Symplectic area of the capping class q; equals tau times the Maslov index.

    Computed as an exact pairing and checked against ``capping_maslov``.
    The oracle of ``GenericShift.certify_area``: ``verify`` reads
    tau * ``GenericShift.maslov`` instead.
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
    return shift.morse_index(shift.position[w])


def poincare_polynomial(shift: GenericShift) -> list[int]:
    """Coefficient k counts chamber elements of Morse index k."""
    coeffs = [0] * (shift.system.dim_lambda() + 1)
    for iw in range(len(shift.positive)):
        coeffs[shift.morse_index(iw)] += 1
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


def parity_report(shift: GenericShift) -> ParityReport:
    """Census of relative degrees deg(w, q) over the validated window.

    With every multiplicity even the degrees are all even and the
    differential vanishes for any coefficients.  Otherwise vanishing is
    undetermined here.
    """
    all_even = all(m % 2 == 0 for m in shift.mult)
    degrees = [d for row in shift.degrees for d in row]
    even = sum(1 for d in degrees if d % 2 == 0)
    odd = len(degrees) - even
    if all_even:
        if odd:
            raise InvariantViolation("odd degree found although every multiplicity is even")
        vanish: bool | None = True
    else:
        vanish = None
    return ParityReport(all_even, even, odd, min(degrees), max(degrees), vanish)
