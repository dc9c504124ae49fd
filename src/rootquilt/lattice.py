"""Lattice windows, generic shifts, and the chord/generator bases.

The lattice is supplied as basis data per catalog entry.  Window
enumeration uses the Gram norm, so windows are Weyl invariant and the
symmetry properties are exactly testable; it sweeps a box of basis
coordinates in integers, against the norm matrix scaled once to integers.
A generic shift is a rational vector certified to avoid every wall and
every floor boundary inside a stated window.  Because 2*alpha(q) is an
integer at every lattice point q, the certificate reads the roots alone,
and the shift's index table enumerates its window lazily, on first use.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    BudgetExceeded,
    FloorBoundary,
    InvariantViolation,
    LatticeNotStable,
    NotInChamber,
    NotRegular,
    NotSmall,
)
from .linalg import (
    Mat, Scalar, Vec, _vec_text, add, div, exact, format_vec, inverse, is_integral, mat_mul,
    mat_vec, scale, transpose, vec, zero_vec,
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
    """A certified shift vector: regular, boundary-free in its window."""

    system: RestrictedRootSystem
    lattice: Lattice
    a: Vec
    mode: Mode
    window_radius: Scalar
    _table: object = field(default=None, repr=False, compare=False)  # see indices.index_table

    def window_points(self) -> list[Vec]:
        from .indices import index_table  # imported here: indices imports lattice
        return index_table(self).points


def reject_floor_boundaries(roots: Sequence[Vec], two_alpha_a: Sequence[Scalar]) -> None:
    """Raise FloorBoundary, named at the origin, at the first integer 2*alpha(a)."""
    for al, val in zip(roots, two_alpha_a):
        if val.denominator == 1:
            origin = zero_vec(len(al))
            raise FloorBoundary(
                al, origin, f"2*alpha(q+a) = {val} at alpha={_vec_text(al)}, q={_vec_text(origin)}"
            )


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
    an integer exactly when 2*alpha(a) is, so the floor boundaries are found
    over the roots alone and reported at the first window point (the origin),
    as a scan of the whole window would report them.  The window itself is
    enumerated on the first read of the index table's ``points``.

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
    two_alpha_a = [2 * system.pairing(al, a) for al in system.roots]
    reject_floor_boundaries(system.roots, two_alpha_a)
    if mode is Mode.SMALL_IN_CHAMBER:
        for beta in system.simple_roots:
            if system.pairing(beta, a) <= 0:
                raise NotInChamber(f"shift fails beta={_vec_text(beta)}")
        for al, val in zip(system.roots, two_alpha_a):
            if 2 * abs(val) >= 1:
                raise NotSmall(f"|2*alpha(a)| >= 1/2 at alpha={_vec_text(al)}")
    return GenericShift(system, lattice, a, mode, radius)


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
