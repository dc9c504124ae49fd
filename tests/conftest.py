"""Shared builders: catalog entries, worked shifts, and ad hoc systems."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from rootquilt import (
    Lattice,
    Mode,
    RestrictedRootSystem,
    get_entry,
    load_catalog,
    validate_generic,
)
from rootquilt.linalg import identity


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def group_a1():
    return get_entry("group-a1")


@pytest.fixture(scope="session")
def group_a2():
    return get_entry("group-a2")


@pytest.fixture(scope="session")
def ai_a2():
    return get_entry("ai-a2")


@pytest.fixture(scope="session")
def a1_shift(group_a1):
    """The worked shift: 2*alpha(a) = 1/5, window radius 3."""
    return validate_generic(
        group_a1.system, group_a1.lattice, (F(1, 20),), Mode.SMALL_IN_CHAMBER, F(3)
    )


def make_rank1(mult: int = 2) -> RestrictedRootSystem:
    """A1 with squared root length 2 and the given multiplicity."""
    roots = [(F(1),), (F(-1),)]
    return RestrictedRootSystem(
        ((F(2),),), roots, {r: mult for r in roots}, (F(1),), name=f"a1-m{mult}"
    )


def make_rank1_lattice(system: RestrictedRootSystem) -> Lattice:
    return Lattice(system, [(F(1),)])


def f4_root_vectors() -> list[tuple[F, ...]]:
    roots = []
    for i in range(4):
        for s in (1, -1):
            v = [F(0)] * 4
            v[i] = F(s)
            roots.append(tuple(v))
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [F(0)] * 4
                    v[i] = F(si)
                    v[j] = F(sj)
                    roots.append(tuple(v))
    for m in range(16):
        signs = [1 if (m >> k) & 1 else -1 for k in range(4)]
        roots.append(tuple(F(s, 2) for s in signs))
    return roots


@pytest.fixture(scope="session")
def f4_system():
    roots = f4_root_vectors()
    return RestrictedRootSystem(
        identity(4), roots, {r: 1 for r in roots}, (F(8), F(4), F(2), F(1)), name="f4"
    )


@pytest.fixture(scope="session")
def f4_lattice(f4_system):
    """The coroot lattice: long coroots equal the roots, short ones are doubled."""
    basis = [
        (F(0), F(1), F(-1), F(0)),
        (F(0), F(0), F(1), F(-1)),
        (F(0), F(0), F(0), F(2)),
        (F(1), F(-1), F(-1), F(-1)),
    ]
    return Lattice(f4_system, basis)
