"""Restricted root systems with multiplicities and their Weyl groups.

A system lives in Q^rank equipped with an exact symmetric positive definite
Gram matrix.  Each root is stored as its metric dual vector, so the value of
the root on v is the Gram pairing with v, and the reflection formula needs
no separate coroot bookkeeping.  Systems may be non-reduced: a root and its
double may both occur, but no other rational multiples.

A Weyl group element is the permutation it induces on the roots.  The
positive system of a chamber determines its element, so the chamber of a
regular vector is one lookup of the vector's sign mask over the roots.

All data is immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .errors import BudgetExceeded, InvariantViolation, NotRegular, UnknownRoot
from .linalg import (
    Mat,
    Scalar,
    Vec,
    _vec_text,
    add,
    div,
    dot,
    gram_pair,
    inverse,
    is_symmetric,
    leading_minors_positive,
    mat,
    mat_mul,
    mat_vec,
    matrix_rank,
    reflect,
    scale,
    transpose,
    vec,
)

DEFAULT_WEYL_CAP = 10**6


@dataclass(frozen=True, eq=False)
class WeylElement:
    """A Weyl group element: w(roots[i]) = roots[perm[i]], with a reduced word.

    The roots span the space, so the permutation determines w; equality and
    hashing use it alone, since one element admits many words.  The word
    lists simple reflection indices (0-based); the element is the product
    s_{i1} s_{i2} ... applied left to right to vectors.  The matrix, for the
    action on vectors, is derived from the permutation on first use.
    """

    perm: tuple[int, ...]
    word: tuple[int, ...]
    system: RestrictedRootSystem = field(repr=False)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    @cached_property
    def matrix(self) -> Mat:
        return self.system._matrix_of(self.perm)

    def __call__(self, v: Vec) -> Vec:
        return mat_vec(self.matrix, v)

    @cached_property
    def name(self) -> str:
        if not self.word:
            return "e"
        return "*".join(f"s{i + 1}" for i in self.word)

    def __repr__(self):
        return f"WeylElement({self.name})"


class WeylGroup:
    """The full finite reflection group, enumerated with reduced words.

    Inverses and words compose root permutations.  ``positive[k]``
    holds the sorted root indices of w_k(R+), the positive system of the
    k-th chamber; it determines w_k, and ``by_mask`` maps its bit mask back
    to k.
    """

    def __init__(
        self, elements: list[WeylElement], gens: list[tuple[int, ...]], pos: tuple[int, ...]
    ):
        self.elements: tuple[WeylElement, ...] = tuple(elements)
        self._by_perm = {w.perm: w for w in elements}
        self.simple: tuple[WeylElement, ...] = tuple(self._by_perm[g] for g in gens)
        self.identity: WeylElement = elements[0]
        self.positive = tuple(tuple(sorted(w.perm[i] for i in pos)) for w in elements)
        self.by_mask = {sum(1 << i for i in p): k for k, p in enumerate(self.positive)}
        max_len = max(len(w.word) for w in elements)
        longest = [w for w in elements if len(w.word) == max_len]
        if len(longest) != 1:
            raise InvariantViolation("longest element is not unique")
        self.longest: WeylElement = longest[0]

    @property
    def order(self) -> int:
        return len(self.elements)

    def inverse(self, a: WeylElement) -> WeylElement:
        # the inverse permutation sorts the indices by their images
        return self._by_perm[tuple(sorted(range(len(a.perm)), key=a.perm.__getitem__))]

    def from_word(self, word: Iterable[int]) -> WeylElement:
        """The product of the simple reflections of a 0-based word."""
        perm = self.identity.perm
        for i in word:
            if not 0 <= i < len(self.simple):
                rank = len(self.simple)
                raise UnknownRoot(f"no simple reflection s{i + 1}; letters run 1..{rank}")
            perm = tuple(perm[j] for j in self.simple[i].perm)
        return self._by_perm[perm]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


class RestrictedRootSystem:
    """A finite set of metric-dual root vectors with positive multiplicities.

    Invariants checked at construction: the Gram matrix is symmetric positive
    definite, the root set is symmetric with matching multiplicities, closed
    under all root reflections (multiplicity preserved), spans the ambient
    space, and proportional roots only come in ratio two.  The base chamber
    is the one containing ``base_point``.

    ``_closed`` skips only the closure check, for a caller that built the
    roots as a reflection closure (``catalog.close_orbits`` reflects every
    ordered pair and keeps each image with its multiplicity).
    """

    def __init__(
        self,
        gram: Mat,
        roots: Iterable[Vec],
        mult: Mapping[Vec, int],
        base_point: Vec,
        name: str = "",
        *,
        _closed: bool = False,
    ):
        self.gram: Mat = mat(gram)
        self.rank: int = len(self.gram)
        self.roots: tuple[Vec, ...] = tuple(sorted(vec(r) for r in roots))
        self.mult: dict[Vec, int] = {vec(r): int(m) for r, m in mult.items()}
        self.base_point: Vec = vec(base_point)
        self.name = name
        self._weyl: WeylGroup | None = None
        self._covector: dict[Vec, Vec] = {}
        self._validate(_closed)

    # -- pairings ------------------------------------------------------

    def pairing(self, alpha: Vec, v: Vec) -> Scalar:
        """The value alpha(v), as a Gram pairing of metric duals."""
        covector = self._covector.get(alpha)
        if covector is None:
            return gram_pair(self.gram, alpha, v)
        return dot(covector, v)

    def norm2(self, v: Vec) -> Scalar:
        return gram_pair(self.gram, v, v)

    def reflect(self, alpha: Vec, v: Vec) -> Vec:
        """Reflection of v across the wall of alpha, computed exactly."""
        covector = self._covector.get(alpha)
        if covector is None:
            raise UnknownRoot(f"{_vec_text(alpha)} is not a root")
        return reflect(covector, alpha, v)

    # -- positive systems and chambers ---------------------------------

    def _sign_mask(self, x: Vec) -> int:
        """Bit i is set when roots[i] is positive on x; walls raise NotRegular."""
        values = [self.pairing(a, x) for a in self.roots]
        walls = [a for a, v in zip(self.roots, values) if v == 0]
        if walls:
            raise NotRegular(walls)
        return sum(1 << i for i, v in enumerate(values) if v > 0)

    def positive_system(self, x: Vec) -> tuple[Vec, ...]:
        """All roots positive on a regular vector; exactly half the set."""
        mask = self._sign_mask(x)
        return tuple(a for i, a in enumerate(self.roots) if mask >> i & 1)

    @property
    def positive_roots(self) -> tuple[Vec, ...]:
        if not hasattr(self, "_positive"):
            self._positive = self.positive_system(self.base_point)
        return self._positive

    def chamber_positive_system(self, w: WeylElement) -> tuple[Vec, ...]:
        """Positive system w(R+) of the w-image of the base chamber, in root order."""
        return tuple(self.roots[j] for j in sorted(w.perm[i] for i in self._positive_index))

    @property
    def indivisible_positive_roots(self) -> tuple[Vec, ...]:
        """Positive roots whose half is not a root."""
        if not hasattr(self, "_indivisible"):
            doubles = {scale(2, a) for a in self.roots}
            self._indivisible = tuple(a for a in self.positive_roots if a not in doubles)
        return self._indivisible

    @property
    def simple_roots(self) -> tuple[Vec, ...]:
        """The walls of the base chamber.

        Ordered by first nonzero coordinate, so that in simple-root
        coordinates the reflection s_i belongs to the i-th coordinate root.
        """
        if not hasattr(self, "_simple"):
            pos = set(self.positive_roots)
            sums = {add(x, y) for x in pos for y in pos}
            simple = [a for a in self.indivisible_positive_roots if a not in sums]
            if len(simple) != self.rank:
                raise InvariantViolation(
                    f"found {len(simple)} simple roots, expected rank {self.rank}"
                )
            simple.sort(key=lambda a: (next(i for i, x in enumerate(a) if x != 0), a))
            self._simple = tuple(simple)
        return self._simple

    def dim_lambda(self) -> int:
        """Total multiplicity over the positive system."""
        return sum(self.mult[a] for a in self.positive_roots)

    # -- Weyl group -----------------------------------------------------

    def weyl_group(self, cap: int = DEFAULT_WEYL_CAP) -> WeylGroup:
        """Breadth-first closure of the simple reflections, as root permutations.

        The BFS discovers each element at its minimal word length, so the
        recorded words are reduced.  Deterministic: the frontier is scanned
        in insertion order and generators in index order.
        """
        if self._weyl is not None:
            return self._weyl
        index = {a: i for i, a in enumerate(self.roots)}
        self._positive_index = tuple(index[a] for a in self.positive_roots)
        self._simple_index = tuple(index[b] for b in self.simple_roots)
        self._simple_inverse = inverse(transpose(self.simple_roots))
        gens = [tuple(index[self.reflect(b, a)] for a in self.roots) for b in self.simple_roots]
        ident = WeylElement(tuple(range(len(self.roots))), (), self)
        seen = {ident.perm: ident}  # in discovery order
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                for i, g in enumerate(gens):
                    perm = tuple(w.perm[j] for j in g)  # w s_i
                    if perm not in seen:
                        seen[perm] = el = WeylElement(perm, w.word + (i,), self)
                        nxt.append(el)
                        if len(seen) > cap:
                            raise BudgetExceeded(f"Weyl group larger than cap {cap}")
            frontier = nxt
        self._weyl = WeylGroup(list(seen.values()), gens, self._positive_index)
        return self._weyl

    def _matrix_of(self, perm: tuple[int, ...]) -> Mat:
        """Matrix sending roots[i] to roots[perm[i]]: simple-root images times S^-1."""
        images = [self.roots[perm[i]] for i in self._simple_index]
        return mat_mul(transpose(images), self._simple_inverse)

    def chamber_of(self, v: Vec) -> WeylElement:
        """The unique w with v in the w-image of the base chamber.

        The roots positive on v form the positive system w(R+) of that
        chamber, and it determines w, so w is found by the sign mask of v.
        A vector on a wall raises ``NotRegular``.
        """
        group = self.weyl_group()
        return group.elements[group.by_mask[self._sign_mask(v)]]

    # -- validation ------------------------------------------------------

    def _validate(self, closed: bool) -> None:
        n = self.rank
        if n < 1:
            raise InvariantViolation("rank must be positive")
        if any(len(row) != n for row in self.gram):
            raise InvariantViolation("gram matrix is not square")
        if not is_symmetric(self.gram):
            raise InvariantViolation("gram matrix is not symmetric")
        if not leading_minors_positive(self.gram):
            raise InvariantViolation("gram matrix is not positive definite")
        if not self.roots:
            raise InvariantViolation("empty root set")
        if set(self.mult) != set(self.roots):
            raise InvariantViolation("multiplicity map does not match the root set")
        for a in self.roots:
            if len(a) != n:
                raise InvariantViolation("root of wrong dimension")
            if all(x == 0 for x in a):
                raise InvariantViolation("zero vector among roots")
            if self.mult[a] < 1:
                raise InvariantViolation("non-positive multiplicity")
            na = tuple(-x for x in a)
            if na not in self.mult or self.mult[na] != self.mult[a]:
                raise InvariantViolation("root set not symmetric with equal multiplicities")
        if matrix_rank(list(self.roots)) != n:
            raise InvariantViolation("roots do not span the ambient space")
        self._check_multiples()
        # gram * alpha per root, so that alpha(v) is one dot product and a
        # reflection needs no matrix product
        self._covector = {a: mat_vec(self.gram, a) for a in self.roots}
        if not closed:
            for a in self.roots:
                for b in self.roots:
                    img = self.reflect(a, b)
                    if img not in self.mult or self.mult[img] != self.mult[b]:
                        raise InvariantViolation(
                            f"reflection of {_vec_text(b)} across {_vec_text(a)} leaves the system"
                        )
        if any(self.pairing(a, self.base_point) == 0 for a in self.roots):
            raise InvariantViolation("base point is not regular")

    def _check_multiples(self) -> None:
        allowed = {1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)}
        for i, a in enumerate(self.roots):
            for b in self.roots[i + 1 :]:
                ratio = _proportionality(a, b)
                if ratio is not None and ratio not in allowed:
                    raise InvariantViolation(
                        f"roots {_vec_text(a)} and {_vec_text(b)} are proportional"
                        f" with ratio {ratio}"
                    )

    def __repr__(self):
        label = self.name or f"rank {self.rank}"
        return f"RestrictedRootSystem({label}, {len(self.roots)} roots)"


def _proportionality(a: Vec, b: Vec) -> Scalar | None:
    """Return c with b = c*a if the vectors are parallel, else None."""
    ratio: Scalar | None = None
    for x, y in zip(a, b):
        if x == 0:
            if y != 0:
                return None
            continue
        r = div(y, x)
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio
