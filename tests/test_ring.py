"""Unit-sector product laws, leading terms, certificates, witnesses."""

import dataclasses
import random
from fractions import Fraction as F

import pytest

import oracles
from rootquilt import (
    Generator,
    Mode,
    QuiltClass,
    WindowTooSmall,
    classify,
    filtration_weight,
    finitely_generated_witness,
    leading_term,
    r_module_basis_check,
    star_unit_sector,
    triangularity_certificate,
    validate_generic,
)
from rootquilt.lattice import canonical_shift
from rootquilt.roots import RestrictedRootSystem, WeylElement


def test_star_unit_is_identity(a1_shift):
    W = a1_shift.system.weyl_group()
    for w in W:
        for q in a1_shift.window_points():
            g = Generator(w, q)
            assert star_unit_sector((F(0),), g) == g


def test_star_a1_sign_flip(a1_shift):
    """s(alpha) = -alpha, so multiplying by y[e;alpha] shifts by -alpha."""
    s = a1_shift.system.weyl_group().elements[1]
    g = Generator(s, (F(2),))
    assert star_unit_sector((F(1),), g) == Generator(s, (F(1),))


def test_star_identity_sector_adds_exponents(group_a2):
    W = group_a2.system.weyl_group()
    e = W.identity
    assert star_unit_sector((F(1), F(0)), Generator(e, (F(0), F(1)))) == Generator(
        e, (F(1), F(1))
    )


def test_ring_element_laws_random_triples(group_a2):
    """Unit, associativity, and the exponent-addition law over Z2."""
    W = group_a2.system.weyl_group()
    rng = random.Random(20250810)
    elements = list(W)

    def rand_point():
        return (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))

    zero = (F(0), F(0))
    for _ in range(10_000):
        q1, q2 = rand_point(), rand_point()
        w = rng.choice(elements)
        g = Generator(w, rand_point())
        # unit law
        assert star_unit_sector(zero, g) == g
        # associativity through the monoid of exponents
        lhs = star_unit_sector(q1, star_unit_sector(q2, g))
        rhs = star_unit_sector(tuple(a + b for a, b in zip(q1, q2)), g)
        assert lhs == rhs
        # identity sector multiplies by adding exponents
        e_prod = star_unit_sector(q1, Generator(W.identity, q2))
        assert e_prod == Generator(W.identity, tuple(a + b for a, b in zip(q1, q2)))


def test_r_module_basis_check(a1_shift):
    assert r_module_basis_check(a1_shift) is True


def test_leading_term_examples(a1_shift):
    W = a1_shift.system.weyl_group()
    s = W.elements[1]
    lt = leading_term((F(-1),), a1_shift)
    assert lt.w == s
    assert lt.filtration == F(8, 5)
    lt0 = leading_term((F(0),), a1_shift)
    assert lt0.w == W.identity
    assert lt0.filtration == F(2, 5)


def test_leading_term_agrees_with_classification(group_a2):
    shift = canonical_shift(group_a2.system, group_a2.lattice, Mode.SMALL_IN_CHAMBER, F(3))
    W = group_a2.system.weyl_group()
    base = filtration_weight(W.identity, shift)
    for q in shift.window_points():
        lt = leading_term(q, shift)
        for w in W:
            is_bad = classify(q, w, shift) is QuiltClass.BAD
            assert is_bad == (lt.w == w)
        assert (lt.filtration == base) == (lt.w == W.identity)


def test_triangularity_radius_zero_advisory(group_a1):
    shift = validate_generic(
        group_a1.system, group_a1.lattice, (F(1, 20),), Mode.SMALL_IN_CHAMBER, F(0)
    )
    cert = triangularity_certificate(shift)
    W = group_a1.system.weyl_group()
    assert not cert.complete
    assert cert.uncovered == (W.elements[1],)
    assert [row.w for row in cert.rows] == [W.identity]
    with pytest.raises(WindowTooSmall):
        finitely_generated_witness(shift)


def test_triangularity_full_window_a1(a1_shift):
    cert = triangularity_certificate(a1_shift)
    assert cert.complete
    assert len(cert.rows) == 10
    W = a1_shift.system.weyl_group()
    s = W.elements[1]
    assert cert.chamber_witness[W.identity] == (F(0),)
    assert cert.chamber_witness[s] == (F(-1),)
    # rows are sorted by ascending filtration of the sector
    fils = [row.filtration for row in cert.rows]
    assert fils == sorted(fils)
    # the defining equation is re-multiplied for every row
    for row in cert.rows:
        assert star_unit_sector(row.exponent, Generator(row.w, row.witness)) == Generator(
            row.w, row.q
        )


def test_triangularity_all_entries_radius_three(catalog):
    for entry in catalog:
        shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(3))
        cert = triangularity_certificate(shift)
        assert cert.complete, entry.name
        count = entry.system.weyl_group().order * len(shift.window_points())
        assert len(cert.rows) == count


def test_witness_set_a1(a1_shift):
    fg = finitely_generated_witness(a1_shift)
    W = a1_shift.system.weyl_group()
    s = W.elements[1]
    expected = {
        Generator(W.identity, (F(1),)),
        Generator(W.identity, (F(-1),)),
        Generator(W.identity, (F(0),)),
        Generator(s, (F(-1),)),
    }
    assert set(fg.generators) == expected
    assert fg.reachable


def test_witness_size_bound(catalog):
    for entry in catalog:
        shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(3))
        fg = finitely_generated_witness(shift)
        bound = 2 * entry.rank + entry.system.weyl_group().order
        assert len(fg.generators) <= bound
        assert fg.reachable


def test_witness_from_a_given_certificate(catalog):
    for entry in catalog:
        shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(3))
        own = finitely_generated_witness(shift)
        given = finitely_generated_witness(shift, triangularity_certificate(shift))
        assert given.generators == own.generators
        assert given.reachable == own.reachable


def test_witness_flags_a_non_lattice_exponent(a1_shift):
    cert = triangularity_certificate(a1_shift)
    assert finitely_generated_witness(a1_shift, cert).reachable
    rows = list(cert.rows)
    rows[3] = dataclasses.replace(rows[3], exponent=(F(1, 2),))
    corrupted = dataclasses.replace(cert, rows=rows)
    assert not finitely_generated_witness(a1_shift, corrupted).reachable


def test_witness_closure_idempotent(a1_shift):
    first = finitely_generated_witness(a1_shift)
    second = finitely_generated_witness(a1_shift)
    assert first.generators == second.generators
    assert first.reachable and second.reachable


def test_chamber_witnesses_cover_when_window_grows(group_a2):
    shift = canonical_shift(group_a2.system, group_a2.lattice, Mode.SMALL_IN_CHAMBER, F(3))
    witnesses = oracles.chamber_witnesses(shift)
    assert set(witnesses) == set(group_a2.system.weyl_group())
    assert triangularity_certificate(shift).chamber_witness == witnesses
    for r in range(3):
        small = canonical_shift(group_a2.system, group_a2.lattice, Mode.SMALL_IN_CHAMBER, F(r))
        cert = triangularity_certificate(small)
        assert cert.chamber_witness == oracles.chamber_witnesses(small)
        assert set(cert.uncovered) == set(group_a2.system.weyl_group()) - set(cert.chamber_witness)


def _corrupted_shift(group_a2):
    """A fresh shift whose window permutation of s1 swaps two images."""
    shift = canonical_shift(group_a2.system, group_a2.lattice, Mode.SMALL_IN_CHAMBER, F(2))
    perm = list(shift.perms[1])
    perm[0], perm[1] = perm[1], perm[0]
    shift.perms[1] = tuple(perm)
    return shift


def test_corrupted_window_permutation_fails_basis_check(group_a2):
    shift = _corrupted_shift(group_a2)
    assert r_module_basis_check(shift) is False


def test_corrupted_window_permutation_fails_factorization(group_a2):
    with pytest.raises(WindowTooSmall, match="factorization identity failed"):
        triangularity_certificate(_corrupted_shift(group_a2))


def test_certificates_leave_the_fraction_oracles_alone(group_a2, monkeypatch):
    shift = canonical_shift(group_a2.system, group_a2.lattice, Mode.SMALL_IN_CHAMBER, F(3))

    def forbidden(*args, **kwargs):
        raise AssertionError("the certificates read the shift's tables")

    monkeypatch.setattr(WeylElement, "__call__", forbidden)
    monkeypatch.setattr(RestrictedRootSystem, "chamber_of", forbidden)
    monkeypatch.setattr(RestrictedRootSystem, "pairing", forbidden)
    assert r_module_basis_check(shift) is True
    assert triangularity_certificate(shift).complete
