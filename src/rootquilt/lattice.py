"""Lattice windows, generic shifts, and the chord/generator bases.

The lattice is supplied as basis data per catalog entry.  Window
enumeration uses the Gram norm, so windows are Weyl invariant and the
symmetry properties are exactly testable; it sweeps a box of basis
coordinates in integers, against the norm matrix scaled once to integers.
A generic shift is a rational vector certified to avoid every wall and
every floor boundary inside a stated window.  Because 2*alpha(q) is an
integer at every lattice point q, the certificate reads the roots alone,
and the shift builds the exact integer tables of its window on first read.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from .errors import (
    BudgetExceeded,
    FloorBoundary,
    InvariantViolation,
    LatticeNotStable,
    ModeMismatch,
    NotInChamber,
    NotRegular,
    NotSmall,
)
from .linalg import (
    Mat, Scalar, Vec, _vec_text, add, div, dot, exact, format_vec, inverse, is_integral,
    mat_mul, mat_vec, scale, transpose, vec, zero_vec,
)
from .roots import RestrictedRootSystem, WeylElement

DEFAULT_POINT_CAP = 500_000
MAX_DENOMINATOR_INDEX = 10_000


class Lattice:
    """A full-rank lattice in the Cartan space, given by a basis.

    Every root must take integer values 2*alpha(b) on the basis vectors, so
    2*alpha(q) is an integer at every lattice point q; the table of these
    integers is built once here.
    """

    def __init__(self, system: RestrictedRootSystem, basis: Sequence[Vec]):
        self.system = system
        self.basis: tuple[Vec, ...] = tuple(vec(b) for b in basis)
        n = system.rank
        if len(self.basis) != n or any(len(b) != n for b in self.basis):
            raise InvariantViolation("lattice basis must be rank many vectors of full dimension")
        cols = tuple(zip(*self.basis, strict=True))  # basis vectors as columns
        self._basis_matrix: Mat = cols
        try:
            self._inv_basis: Mat = inverse(cols)
        except ValueError:
            raise InvariantViolation("lattice basis is not linearly independent") from None
        bt = self.basis  # rows are basis vectors
        norm_matrix = mat_mul(bt, mat_mul(system.gram, transpose(bt)))
        self._inv_norm: Mat = inverse(norm_matrix)
        # the norm matrix scaled once to integers, for the window sweep
        self._norm_scale = math.lcm(*(x.denominator for row in norm_matrix for x in row))
        self._int_norm = tuple(tuple(int(x * self._norm_scale) for x in row) for row in norm_matrix)
        # two_alpha_basis[i][j] = 2*alpha_i(b_j), alpha_i in system.roots order
        table = []
        for al in system.roots:
            row = []
            for b in self.basis:
                val = 2 * system.pairing(al, b)
                if val.denominator != 1:
                    raise InvariantViolation(
                        f"2*alpha(b) = {val} is not integral at root"
                        f" alpha={_vec_text(al)} and basis vector b={_vec_text(b)}"
                    )
                row.append(int(val))
            table.append(tuple(row))
        self.two_alpha_basis: tuple[tuple[int, ...], ...] = tuple(table)

    def from_coords(self, coords: Sequence) -> Vec:
        return mat_vec(self._basis_matrix, vec(coords))

    def coords(self, v: Vec) -> Vec:
        return mat_vec(self._inv_basis, v)

    def contains(self, v: Vec) -> bool:
        return is_integral(self.coords(v))

    def two_alpha(self, q: Vec) -> tuple[int, ...]:
        """The integers 2*alpha(q) of a lattice point q, in system.roots order."""
        coords = self.coords(q)
        if not is_integral(coords):
            raise InvariantViolation(f"{_vec_text(q)} is not a lattice point")
        c = [int(x) for x in coords]
        return tuple(sum(t * x for t, x in zip(row, c)) for row in self.two_alpha_basis)

    def check_weyl_stable(self) -> None:
        """Exact membership of every Weyl image of every basis vector.

        The simple reflections generate the group and follow the identity in
        group order, so checking them finds the same first failure.
        """
        for w in self.system.weyl_group().simple:
            for b in self.basis:
                if not self.contains(w(b)):
                    raise LatticeNotStable(f"{w.name} moves basis vector {_vec_text(b)} off the lattice")

    def points(self, radius: Scalar, cap: int = DEFAULT_POINT_CAP) -> list[Vec]:
        """All lattice points with Gram norm at most radius.

        Ordered by (norm squared, basis coordinates), so smaller windows are
        prefixes of larger ones and the order is reproducible.  The box of
        basis coordinates is swept in integers: with the norm matrix scaled
        to integers by D, a point is kept exactly when q2*D <= floor(r2*D).
        """
        radius = exact(radius)
        if radius < 0:
            raise ValueError("radius must be non-negative")
        r2 = radius * radius
        limit = math.floor(r2 * self._norm_scale)
        bounds = [math.isqrt(math.floor(r2 * self._inv_norm[i][i])) for i in range(self.system.rank)]
        found: list[tuple[int, tuple[int, ...]]] = []
        for c in itertools.product(*(range(-b, b + 1) for b in bounds)):
            q2 = sum(x * sum(n * y for n, y in zip(row, c)) for x, row in zip(c, self._int_norm))
            if q2 <= limit:
                found.append((q2, c))
                if len(found) > cap:
                    raise BudgetExceeded(f"window holds more than {cap} lattice points")
        found.sort()
        return [self.from_coords(c) for _, c in found]


class Mode(enum.Enum):
    REGULAR_ONLY = "regular_only"
    SMALL_IN_CHAMBER = "small_in_chamber"


@dataclass
class GenericShift:
    """A certified shift vector: regular, boundary-free in its window, with
    the exact tables read off it, per root and over the window.

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

    The constructor builds the per-root data and rejects a floor boundary;
    ``floors_at``, ``chamber_index`` and ``degree`` answer from them for one
    lattice point.  ``points``, the one enumeration of the window, and each
    window table are built on first read.  Window points are indexed in
    ``points`` order, chamber elements in Weyl group order and roots in
    ``system.roots`` order.
    """

    system: RestrictedRootSystem
    lattice: Lattice
    a: Vec
    mode: Mode
    window_radius: Scalar

    def __post_init__(self):
        system, roots = self.system, self.system.roots
        group = self._group = system.weyl_group()
        self.two_alpha_a: tuple[Scalar, ...] = tuple(2 * system.pairing(al, self.a) for al in roots)
        # 2*alpha(q + a) is an integer exactly when 2*alpha(a) is, so a floor
        # boundary is named at the first window point, the origin
        for al, val in zip(roots, self.two_alpha_a):
            if val.denominator == 1:
                origin = zero_vec(len(al))
                raise FloorBoundary(
                    al, origin, f"2*alpha(q+a) = {val} at alpha={_vec_text(al)}, q={_vec_text(origin)}"
                )
        self.mult: tuple[int, ...] = tuple(system.mult[al] for al in roots)
        self.floor_a: tuple[int, ...] = tuple(math.floor(t) for t in self.two_alpha_a)
        self.positive = group.positive
        self.position: dict[WeylElement, int] = {w: k for k, w in enumerate(group)}
        den = math.lcm(*(t.denominator for t in self.two_alpha_a))
        frac_num = [int((t - f) * den) for t, f in zip(self.two_alpha_a, self.floor_a)]
        self.filtration: list[Scalar] = [
            div(sum(self.mult[i] * frac_num[i] for i in pos), den) for pos in self.positive
        ]

    def window_points(self) -> list[Vec]:
        return self.points

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


def validate_generic(
    system: RestrictedRootSystem,
    lattice: Lattice,
    a: Vec,
    mode: Mode = Mode.SMALL_IN_CHAMBER,
    radius: Scalar = 0,
) -> GenericShift:
    """Exact finite certification of a shift over roots x window points.

    Checks, in order: regularity (no wall contains ``a``), absence of floor
    boundaries (no 2*alpha(q + a) is an integer for window points q), and in
    small-in-chamber mode that ``a`` lies in the base chamber with every
    |2*alpha(a)| < 1/2.

    Since 2*alpha(q) is an integer at every lattice point, 2*alpha(q + a) is
    an integer exactly when 2*alpha(a) is, so the ``GenericShift``
    constructor finds the floor boundaries over the roots alone and reports
    them at the first window point (the origin), as a window scan would.
    The window is enumerated on the first read of the shift's ``points``.

    The strict 1/2 matters: the filtration difference between a chamber
    element and the identity is a sum of terms m_alpha (1 - 4 alpha(a)) over
    flipped roots, so 1/2 is exactly the threshold below which the identity
    is the unique filtration minimum.
    """
    a = vec(a)
    radius = exact(radius)
    walls = [al for al in system.roots if system.pairing(al, a) == 0]
    if walls:
        raise NotRegular(walls)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    shift = GenericShift(system, lattice, a, mode, radius)
    if mode is Mode.SMALL_IN_CHAMBER:
        for beta in system.simple_roots:
            if system.pairing(beta, a) <= 0:
                raise NotInChamber(f"shift fails beta={_vec_text(beta)}")
        for al, val in zip(system.roots, shift.two_alpha_a):
            if 2 * abs(val) >= 1:
                raise NotSmall(f"|2*alpha(a)| >= 1/2 at alpha={_vec_text(al)}")
    return shift


def weighted_root_sum(system: RestrictedRootSystem) -> Vec:
    """Sum of the positive roots weighted by multiplicity, as a vector."""
    total = zero_vec(system.rank)
    for al in system.positive_roots:
        total = add(total, scale(system.mult[al], al))
    return total


def canonical_shift(
    system: RestrictedRootSystem,
    lattice: Lattice,
    mode: Mode = Mode.SMALL_IN_CHAMBER,
    radius: Scalar = 0,
) -> GenericShift:
    """The reproducible default shift epsilon * rho-dual.

    Scans epsilon = 1/3, 1/5, 1/7, ..., 1/(2*MAX_DENOMINATOR_INDEX + 1) and
    returns the first scaling of the weighted root sum that passes
    validation at the requested radius.

    Every check of ``validate_generic`` is read off the values at rho, since
    alpha(epsilon * rho) = epsilon * alpha(rho): the sign conditions do not
    depend on epsilon, and a candidate fails on a floor boundary or on
    smallness exactly when some epsilon * 2*alpha(rho) is an integer or at
    least 1/2 in size.  So the first candidate passing these is valid, and
    only it is validated.  The scan runs in integers: with 2*alpha(rho) =
    p/q in lowest terms and epsilon = 1/k, the value is an integer exactly
    when q*k divides p, and at least 1/2 in size exactly when 2|p| >= q*k.
    """
    rho = weighted_root_sum(system)
    two_alpha_rho = [2 * system.pairing(al, rho) for al in system.roots]
    small = mode is Mode.SMALL_IN_CHAMBER
    signs_ok = all(v != 0 for v in two_alpha_rho) and not (
        small and any(system.pairing(beta, rho) <= 0 for beta in system.simple_roots)
    )
    pairs = [(v.numerator, v.denominator) for v in two_alpha_rho]
    candidates = range(3, 2 * MAX_DENOMINATOR_INDEX + 2, 2) if signs_ok else ()
    for k in candidates:
        if any(p % (q * k) == 0 for p, q in pairs):
            continue
        if small and any(2 * abs(p) >= q * k for p, q in pairs):
            continue
        return validate_generic(system, lattice, scale(div(1, k), rho), mode, radius)
    raise InvariantViolation("no canonical shift found; data is degenerate")


@dataclass(frozen=True)
class Generator:
    """Basis element of the enlarged complex, indexed by (w, lattice point)."""

    w: WeylElement
    q: Vec

    def label(self) -> str:
        return f"y[{self.w.name};{format_vec(self.q)}]"


@dataclass(frozen=True)
class Chord:
    """A lattice point indexing a Hamiltonian chord."""

    q: Vec


def chords(shift: GenericShift) -> list[Chord]:
    return [Chord(q) for q in shift.window_points()]


def generators(shift: GenericShift) -> list[Generator]:
    group = shift.system.weyl_group()
    return [Generator(w, q) for w in group for q in shift.window_points()]
