"""The enlarged complex as a free module and its unit-sector product.

Only products with a left factor in the identity sector are defined: the
product rule y[e;q1] * y[w;q2] = y[w; w(q1)+q2] makes the identity sector a
copy of the lattice monoid algebra and every other sector a free rank-one
module over it, so ``star_unit_sector`` takes the left factor as its
exponent q1 alone.  The window certificates read the shift's window
permutations and filtration weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WindowTooSmall
from .lattice import GenericShift, Generator
from .linalg import Scalar, Vec, add, sub
from .roots import WeylElement


def star_unit_sector(q1: Vec, g: Generator) -> Generator:
    """Product of the identity-sector element of exponent q1 with g."""
    return Generator(g.w, add(g.w(q1), g.q))


@dataclass(frozen=True)
class LeadingTerm:
    """Leading generator of the image of a chord, with its filtration level."""

    q: Vec
    w: WeylElement
    filtration: Scalar


def leading_term(q: Vec, shift: GenericShift) -> LeadingTerm:
    """The chamber element of q + a and its filtration weight.

    The image of the chord q is this generator up to sign, plus terms of
    strictly smaller filtration which are not computed here.  q must be a
    lattice point: another point raises InvariantViolation.
    """
    k = shift.chamber_index(shift.floors_at(q))
    return LeadingTerm(q, shift.system.weyl_group().elements[k], shift.filtration[k])


@dataclass(frozen=True)
class CertificateRow:
    w: WeylElement
    q: Vec
    witness: Vec  # q' with chamber_of(q'+a) = w
    exponent: Vec  # s with star_unit_sector(s, y[w;q']) = y[w;q]
    filtration: Scalar


@dataclass
class TriangularityCertificate:
    """Witness table for the localized leading-term isomorphism.

    Rows are ordered by (filtration of the sector, sector, window position).
    ``uncovered`` lists chamber elements with no witness chord inside the
    window; the certificate is complete when that list is empty.
    """

    rows: list[CertificateRow]
    uncovered: tuple[WeylElement, ...]
    chamber_witness: dict[WeylElement, Vec]

    @property
    def complete(self) -> bool:
        return not self.uncovered


def triangularity_certificate(shift: GenericShift) -> TriangularityCertificate:
    """Factor every window generator through a leading term of its sector.

    For each (w, q) with a witness q' in the window, the exponent
    s = w^{-1}q - w^{-1}q' satisfies star_unit_sector(s, y[w;q']) = y[w;q];
    the identity w(w^{-1}q) = q is re-checked row by row on the window
    permutations.  Missing witnesses are reported, not fatal.
    """
    elements = shift.system.weyl_group().elements
    points = shift.points
    # chamber element -> its first window point, in window order
    first = {iw: shift.chambers.index(iw) for iw in dict.fromkeys(shift.chambers)}
    rows: list[CertificateRow] = []
    uncovered: list[WeylElement] = []
    for k in sorted(range(len(elements)), key=lambda k: (shift.filtration[k], elements[k].word)):
        w = elements[k]
        if k not in first:
            uncovered.append(w)
            continue
        to_w, from_w = shift.perms[k], shift.perms[shift.inverses[k]]
        q_prime, base, fil = points[first[k]], points[from_w[first[k]]], shift.filtration[k]
        for iq, q in enumerate(points):
            if to_w[from_w[iq]] != iq:
                raise WindowTooSmall((w,), "factorization identity failed")
            rows.append(CertificateRow(w, q, q_prime, sub(points[from_w[iq]], base), fil))
    witnesses = {elements[k]: points[iq] for k, iq in first.items()}
    return TriangularityCertificate(rows, tuple(uncovered), witnesses)


def r_module_basis_check(shift: GenericShift) -> bool:
    """Whether y[w;q] = star(w^{-1} q, y[w;0]) = y[w; w(w^{-1} q)] at every
    window generator, on the shift's window permutations.

    True exactly when perms[k][perms[inv[k]][iq]] == iq for every chamber
    element k and window point iq, where inv[k] indexes w_k^{-1}.
    """
    return all(
        all(to_w[i] == iq for iq, i in enumerate(shift.perms[inv]))
        for to_w, inv in zip(shift.perms, shift.inverses)
    )


@dataclass
class FinitelyGeneratedWitness:
    """A finite generator set reaching every window generator."""

    generators: tuple[Generator, ...]
    reachable: bool


def finitely_generated_witness(
    shift: GenericShift, cert: TriangularityCertificate | None = None
) -> FinitelyGeneratedWitness:
    """Lattice basis exponents plus one chamber witness per sector.

    Requires a complete triangularity certificate of ``shift``, built here
    unless the caller passes the one it already has; raises WindowTooSmall
    when it is incomplete.  Reachability holds because every factorization
    exponent has integral coordinates in the lattice basis, which is
    re-checked here.
    """
    if cert is None:
        cert = triangularity_certificate(shift)
    if not cert.complete:
        raise WindowTooSmall(cert.uncovered)
    group = shift.system.weyl_group()
    ident = group.identity
    gens: list[Generator] = []
    seen = set()

    def push(g: Generator) -> None:
        if g not in seen:
            seen.add(g)
            gens.append(g)

    for b in shift.lattice.basis:
        push(Generator(ident, b))
        push(Generator(ident, tuple(-x for x in b)))
    for w in group:
        push(Generator(w, cert.chamber_witness[w]))
    # exponents are differences of window points and repeat across rows
    reachable = all(shift.lattice.contains(s) for s in {row.exponent for row in cert.rows})
    return FinitelyGeneratedWitness(tuple(gens), reachable)
