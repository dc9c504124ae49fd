"""The enlarged complex as a free module and its unit-sector product.

Only products with a left factor in the identity sector are defined: the
product rule y[e;q1] * y[w;q2] = y[w; w(q1)+q2] makes the identity sector a
copy of the lattice monoid algebra and every other sector a free rank-one
module over it.  Products with both factors outside the identity sector are
a hard error, never an approximation.  The window certificates read the
permutations and filtration weights of the shift's index table.

Coefficients default to the two-element field, where all signs are trivial.
An integer mode exists, but every product result is flagged as carrying an
unverified sign.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotInImplementedSector, WindowTooSmall
from .indices import index_table
from .lattice import GenericShift, Generator
from .linalg import Scalar, Vec, add, sub
from .roots import WeylElement


def star_unit_sector(q1: Vec, g: Generator) -> Generator:
    """Product of the identity-sector element of exponent q1 with g."""
    return Generator(g.w, add(g.w(q1), g.q))


@dataclass(frozen=True)
class Coefficient:
    value: int
    sign_trusted: bool = True


class RingElement:
    """Finitely supported combination of generators.

    ``ring`` is "Z2" (default) or "Z".  Over Z every coefficient produced by
    a product carries sign_trusted = False.
    """

    def __init__(self, terms: dict[Generator, Coefficient] | None = None, ring: str = "Z2"):
        ring = ring.upper()
        if ring not in ("Z2", "Z"):
            raise ValueError(f"unsupported coefficient ring {ring!r}")
        self.ring = ring
        self.terms: dict[Generator, Coefficient] = {}
        for g, c in (terms or {}).items():
            self._accumulate(g, c)

    @classmethod
    def basis(cls, g: Generator, ring: str = "Z2") -> "RingElement":
        return cls({g: Coefficient(1)}, ring=ring)

    def _accumulate(self, g: Generator, c: Coefficient) -> None:
        old = self.terms.get(g)
        value = (old.value if old else 0) + c.value
        trusted = c.sign_trusted and (old.sign_trusted if old else True)
        if self.ring == "Z2":
            value %= 2
            trusted = True
        if value == 0:
            self.terms.pop(g, None)
        else:
            self.terms[g] = Coefficient(value, trusted)

    def __add__(self, other: "RingElement") -> "RingElement":
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")
        out = RingElement(dict(self.terms), ring=self.ring)
        for g, c in other.terms.items():
            out._accumulate(g, c)
        return out

    def star(self, other: "RingElement") -> "RingElement":
        """Unit-sector product: every generator on the left must have w = e."""
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")
        out = RingElement(ring=self.ring)
        for g1, c1 in self.terms.items():
            if g1.w.word:
                raise NotInImplementedSector(
                    f"left factor {g1.label()} is outside the identity sector"
                )
            for g2, c2 in other.terms.items():
                target = star_unit_sector(g1.q, g2)
                trusted = self.ring == "Z2"
                out._accumulate(target, Coefficient(c1.value * c2.value, trusted))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "RingElement(0)"
        parts = [f"{c.value}*{g.label()}" for g, c in sorted(self.terms.items(), key=lambda t: t[0].label())]
        return "RingElement(" + " + ".join(parts) + f"; {self.ring})"


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
    table = index_table(shift)
    k = table.chamber_index(table.floors_at(q))
    return LeadingTerm(q, shift.system.weyl_group().elements[k], table.filtration[k])


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
    table = index_table(shift)
    elements = shift.system.weyl_group().elements
    points = table.points
    # chamber element -> its first window point, in window order
    first = {iw: table.chambers.index(iw) for iw in dict.fromkeys(table.chambers)}
    rows: list[CertificateRow] = []
    uncovered: list[WeylElement] = []
    for k in sorted(range(len(elements)), key=lambda k: (table.filtration[k], elements[k].word)):
        w = elements[k]
        if k not in first:
            uncovered.append(w)
            continue
        to_w, from_w = table.perms[k], table.perms[table.inverses[k]]
        q_prime, base, fil = points[first[k]], points[from_w[first[k]]], table.filtration[k]
        for iq, q in enumerate(points):
            if to_w[from_w[iq]] != iq:
                raise WindowTooSmall((w,), "factorization identity failed")
            rows.append(CertificateRow(w, q, q_prime, sub(points[from_w[iq]], base), fil))
    witnesses = {elements[k]: points[iq] for k, iq in first.items()}
    return TriangularityCertificate(rows, tuple(uncovered), witnesses)


def r_module_basis_check(shift: GenericShift) -> bool:
    """Whether y[w;q] = star(w^{-1} q, y[w;0]) = y[w; w(w^{-1} q)] at every
    window generator, on the window permutations of the index table.

    True exactly when perms[k][perms[inv[k]][iq]] == iq for every chamber
    element k and window point iq, where inv[k] indexes w_k^{-1}.
    """
    table = index_table(shift)
    return all(
        all(to_w[i] == iq for iq, i in enumerate(table.perms[inv]))
        for to_w, inv in zip(table.perms, table.inverses)
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
