"""Index formula, bad/ugly classification, filtration, Morse and parity."""

import gc
import math
import weakref
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from rootquilt import (
    FloorBoundary,
    InvariantViolation,
    Mode,
    ModeMismatch,
    NotUgly,
    QuiltClass,
    QuiltDatum,
    RestrictedRootSystem,
    capping_area,
    capping_maslov,
    classify,
    default_tau,
    filtration_weight,
    get_entry,
    leading_term,
    monotone_data,
    morse_index,
    parity_report,
    poincare_polynomial,
    quilt_index,
    relative_degree,
    ugly_index,
    validate_generic,
    zero_index_implication,
)
from rootquilt.lattice import GenericShift, canonical_shift
from rootquilt.suite import run_suite

from conftest import make_rank1, make_rank1_lattice

ROOT = Path(__file__).resolve().parent.parent
EXTRA_CATALOG = str(ROOT / "tests" / "data" / "extra_catalog.json")
F4_CATALOG = str(ROOT / "bench" / "data" / "f4.json")


def test_default_tau_matches_worked_normalization(group_a1):
    assert default_tau(group_a1.system) == F(1, 8)


def test_monotone_data_group_a1(group_a1):
    md = monotone_data(group_a1.system, F(1, 8))
    assert md.rho == (F(2),)
    assert md.x0 == (F(1, 2),)
    assert group_a1.system.pairing((F(1),), md.x0) == 1


def test_monotone_data_scales_linearly(group_a2):
    md1 = monotone_data(group_a2.system, F(1, 8))
    md2 = monotone_data(group_a2.system, F(1, 4))
    assert md2.x0 == tuple(2 * x for x in md1.x0)


def test_monotone_data_ai_a2(ai_a2):
    # tau = 1/2 makes X0 the weighted positive-root sum itself
    md = monotone_data(ai_a2.system, F(1, 2))
    oracle = (F(0), F(0))
    for alpha in ai_a2.system.positive_system((F(1), F(1))):
        oracle = tuple(o + x for o, x in zip(oracle, alpha))
    assert md.x0 == oracle == (F(2), F(2))


def test_quilt_index_worked_value(a1_shift):
    """Independent oracle: 2*floor(4.2) - 2*floor(-4.2) = 8 + 10 = 18."""
    W = a1_shift.system.weyl_group()
    s = W.elements[1]
    alpha = (F(1),)
    oracle = 2 * math.floor(F(21, 5)) - 2 * math.floor(F(-21, 5))
    assert oracle == 18
    idx = quilt_index(QuiltDatum(a1_shift, alpha, s, alpha))
    assert idx == 18


def test_quilt_index_trivial_cases(a1_shift):
    W = a1_shift.system.weyl_group()
    zero = (F(0),)
    assert quilt_index(QuiltDatum(a1_shift, zero, W.identity, zero)) == 0


def test_bad_data_have_index_zero(group_a2):
    shift = canonical_shift(group_a2.system, group_a2.lattice, Mode.SMALL_IN_CHAMBER, F(3))
    for q in shift.window_points():
        w = group_a2.system.chamber_of(tuple(a + b for a, b in zip(q, shift.a)))
        assert classify(q, w, shift) is QuiltClass.BAD
        assert quilt_index(QuiltDatum(shift, q, w, q)) == 0


def test_classify_examples(a1_shift):
    W = a1_shift.system.weyl_group()
    s = W.elements[1]
    assert classify((F(0),), W.identity, a1_shift) is QuiltClass.BAD
    assert classify((F(1),), s, a1_shift) is QuiltClass.UGLY
    assert classify((F(1),), W.identity, a1_shift) is QuiltClass.BAD


def test_ugly_index_worked_values(a1_shift):
    W = a1_shift.system.weyl_group()
    s = W.elements[1]
    assert ugly_index((F(1),), s, a1_shift) == 18
    with pytest.raises(NotUgly):
        ugly_index((F(1),), W.identity, a1_shift)


def test_ugly_index_multiplicity_one_variant():
    sys_ = make_rank1(mult=1)
    lat = make_rank1_lattice(sys_)
    shift = validate_generic(sys_, lat, (F(1, 20),), Mode.SMALL_IN_CHAMBER, F(3))
    s = sys_.weyl_group().elements[1]
    assert ugly_index((F(1),), s, shift) == 9


def test_ugly_positive_on_window(group_a2):
    shift = canonical_shift(group_a2.system, group_a2.lattice, Mode.SMALL_IN_CHAMBER, F(3))
    for q in shift.window_points():
        for w in group_a2.system.weyl_group():
            if classify(q, w, shift) is QuiltClass.UGLY:
                assert ugly_index(q, w, shift) >= 1


def test_filtration_weights_worked_values(a1_shift):
    W = a1_shift.system.weyl_group()
    assert filtration_weight(W.identity, a1_shift) == F(2, 5)
    assert filtration_weight(W.elements[1], a1_shift) == F(8, 5)


def test_filtration_identity_value_small_mode(group_a2):
    shift = canonical_shift(group_a2.system, group_a2.lattice, Mode.SMALL_IN_CHAMBER, F(2))
    sys_ = group_a2.system
    expected = sum(
        (sys_.mult[al] * 2 * sys_.pairing(al, shift.a) for al in sys_.positive_roots),
        F(0),
    )
    assert filtration_weight(sys_.weyl_group().identity, shift) == expected


def test_filtration_unique_minimum(catalog):
    for entry in catalog:
        shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(1))
        W = entry.system.weyl_group()
        base = filtration_weight(W.identity, shift)
        for w in W:
            if w != W.identity:
                assert filtration_weight(w, shift) > base


def test_filtration_multiset_invariant_under_relabeling(ai_a2):
    """Conjugating the base chamber permutes the weights without changing them."""
    sys_ = ai_a2.system
    shift = canonical_shift(sys_, ai_a2.lattice, Mode.SMALL_IN_CHAMBER, F(1))
    W = sys_.weyl_group()
    reference = sorted(filtration_weight(w, shift) for w in W)
    for w0 in W:
        relabeled = RestrictedRootSystem(
            sys_.gram, sys_.roots, sys_.mult, w0(sys_.base_point)
        )
        from rootquilt import Lattice

        lat = Lattice(relabeled, ai_a2.lattice.basis)
        moved = validate_generic(
            relabeled, lat, w0(shift.a), Mode.SMALL_IN_CHAMBER, shift.window_radius
        )
        values = sorted(filtration_weight(w, moved) for w in relabeled.weyl_group())
        assert values == reference


def test_zero_index_implication_diagonal(a1_shift, group_a1):
    md = monotone_data(group_a1.system, F(1, 8))
    W = group_a1.system.weyl_group()
    datum = ((F(1),), W.identity)
    assert zero_index_implication(datum, datum, a1_shift, md)


def test_zero_index_implication_exhaustive_a1(group_a1):
    shift = validate_generic(
        group_a1.system, group_a1.lattice, (F(1, 20),), Mode.SMALL_IN_CHAMBER, F(4)
    )
    md = monotone_data(group_a1.system, F(1, 8))
    W = group_a1.system.weyl_group()
    data = [(q, w) for q in shift.window_points() for w in W]
    assert all(
        zero_index_implication(d_in, d_out, shift, md) for d_in in data for d_out in data
    )


def test_zero_index_implication_exhaustive_ai_a2(ai_a2):
    shift = canonical_shift(ai_a2.system, ai_a2.lattice, Mode.SMALL_IN_CHAMBER, F(3))
    md = monotone_data(ai_a2.system)
    W = ai_a2.system.weyl_group()
    data = [(q, w) for q in shift.window_points() for w in W]
    assert all(
        zero_index_implication(d_in, d_out, shift, md) for d_in in data for d_out in data
    )


@pytest.mark.parametrize("name,radius", [("group-a1", 3), ("ai-a2", 2), ("eiv-a2", 1)])
def test_implication_table_matches_pairwise_oracle(name, radius):
    entry = get_entry(name)
    report = run_suite(entry, radius=F(radius))
    values = {(r["section"], r["item"]): r["value"] for r in report.rows}
    shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(radius))
    md = monotone_data(entry.system)
    data = [(q, w) for q in shift.window_points() for w in entry.system.weyl_group()]
    oracle = [zero_index_implication(d_in, d_out, shift, md) for d_in in data for d_out in data]
    assert values[("implication", "checked")] == str(len(oracle))
    assert values[("implication", "holds")] == str(sum(oracle))


def test_implication_violations_equal_actions_hold():
    rows = [(0, F(1), F(0)), (0, F(1), F(5)), (0, F(1), F(5))]
    assert oracles.implication_violations(rows) == (0, None)


def test_implication_violations_equal_filtrations_with_action_drop():
    rows = [(0, F(2), F(1, 3)), (0, F(1), F(1, 3))]
    # (0, 1) drops the action but not the filtration; (1, 0) raises the action
    assert oracles.implication_violations(rows) == (1, (0, 1))


def test_implication_violations_over_two_degree_groups():
    rows = [(0, F(5), F(0)), (1, F(3), F(0)), (0, F(1), F(1)), (1, F(1), F(0))]
    # (0, 2) in degree 0 and (1, 3) in degree 1 violate; (1, 2) drops the
    # action without a filtration drop too, but its degrees differ
    assert oracles.implication_violations(rows) == (2, (0, 2))


_row = st.tuples(
    st.integers(0, 2), st.fractions(-2, 2, max_denominator=3), st.fractions(0, 2, max_denominator=3)
)


@given(st.lists(_row, max_size=12))
def test_implication_violations_match_brute_force(rows):
    bad = [
        (i, j)
        for i, (deg_in, act_in, fil_in) in enumerate(rows)
        for j, (deg_out, act_out, fil_out) in enumerate(rows)
        if deg_in == deg_out and act_in > act_out and not fil_in > fil_out
    ]
    assert oracles.implication_violations(rows) == (len(bad), bad[0] if bad else None)


def test_capping_worked_values(group_a1):
    sys_ = group_a1.system
    md = monotone_data(sys_, F(1, 8))
    assert capping_maslov(sys_, (F(0),)) == 0
    assert capping_area((F(0),), md) == 0
    assert capping_maslov(sys_, (F(1),)) == -8
    assert capping_area((F(1),), md) == -1
    assert capping_area((F(1),), md) == md.tau * capping_maslov(sys_, (F(1),))


def test_capping_antisymmetry(group_a2):
    sys_ = group_a2.system
    for q in group_a2.lattice.points(F(3)):
        assert capping_maslov(sys_, tuple(-x for x in q)) == -capping_maslov(sys_, q)


def test_area_proportionality_any_tau(group_a2):
    for tau in (F(1, 8), F(3, 7), F(5)):
        md = monotone_data(group_a2.system, tau)
        for q in group_a2.lattice.points(F(2)):
            assert capping_area(q, md) == tau * capping_maslov(group_a2.system, q)


def test_morse_index_values(a1_shift):
    W = a1_shift.system.weyl_group()
    assert morse_index(W.identity, a1_shift) == 0
    assert morse_index(W.elements[1], a1_shift) == 2


def test_morse_index_longest_element(catalog):
    for entry in catalog:
        shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(0))
        W = entry.system.weyl_group()
        top = entry.system.dim_lambda()
        assert morse_index(W.longest, shift) == top
        for w in W:
            opposite = oracles.multiply(W, W.longest, w)
            assert morse_index(opposite, shift) == top - morse_index(w, shift)


def test_morse_index_mode_mismatch(group_a1):
    shift = validate_generic(
        group_a1.system, group_a1.lattice, (F(1, 20),), Mode.REGULAR_ONLY, F(0)
    )
    W = group_a1.system.weyl_group()
    with pytest.raises(ModeMismatch):
        morse_index(W.identity, shift)


def test_poincare_group_a1(a1_shift):
    assert poincare_polynomial(a1_shift) == [1, 0, 1]


def test_poincare_ai_a2(ai_a2):
    """Palindrome and total count, plus an independent inversion census."""
    shift = canonical_shift(ai_a2.system, ai_a2.lattice, Mode.SMALL_IN_CHAMBER, F(1))
    coeffs = poincare_polynomial(shift)
    W = ai_a2.system.weyl_group()
    assert coeffs == coeffs[::-1]
    assert coeffs[0] == 1 and coeffs[-1] == 1
    assert sum(coeffs) == W.order == 6
    # oracle: the index of w equals the number of positive roots sent negative
    sys_ = ai_a2.system
    census = [0] * (sys_.dim_lambda() + 1)
    for w in W:
        inversions = sum(
            1 for al in sys_.positive_roots if sys_.pairing(w(al), sys_.base_point) < 0
        )
        census[inversions] += 1
    assert coeffs == census == [1, 2, 2, 1]


def test_poincare_sum_is_group_order(catalog):
    for entry in catalog:
        shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(0))
        coeffs = poincare_polynomial(shift)
        assert sum(coeffs) == entry.system.weyl_group().order
        assert coeffs == coeffs[::-1]
        assert len(coeffs) == entry.dim_lambda + 1


def test_parity_group_case(group_a1):
    shift = validate_generic(
        group_a1.system, group_a1.lattice, (F(1, 20),), Mode.SMALL_IN_CHAMBER, F(3)
    )
    report = parity_report(shift)
    assert report.all_multiplicities_even
    assert report.odd_degrees == 0
    assert report.differential_must_vanish is True
    assert report.verdict == "true"


def test_parity_mixed_case(ai_a2):
    shift = canonical_shift(ai_a2.system, ai_a2.lattice, Mode.SMALL_IN_CHAMBER, F(3))
    report = parity_report(shift)
    assert not report.all_multiplicities_even
    assert report.odd_degrees > 0 and report.even_degrees > 0
    assert report.differential_must_vanish is None
    assert report.verdict == "undetermined"


def test_parity_radius_zero_smoke(catalog):
    for entry in catalog:
        shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(0))
        report = parity_report(shift)
        assert report.even_degrees + report.odd_degrees == entry.system.weyl_group().order


def test_relative_degree_is_windowwise_even_for_even_mult(group_a2):
    shift = canonical_shift(group_a2.system, group_a2.lattice, Mode.SMALL_IN_CHAMBER, F(3))
    for w in group_a2.system.weyl_group():
        for q in shift.window_points():
            assert relative_degree(w, q, shift) % 2 == 0


def test_group_a2_canonical_hand_oracle(group_a2):
    """Frozen values from a by-hand evaluation at the canonical shift.

    rho = (4,4), so the scan needs 16 eps < 1/2, first at eps = 1/33 and
    a = (4/33, 4/33).  Then 2 alpha(a) = 8/33, 8/33, 16/33 on the positive
    roots, giving the filtration table below; for q = (1,0) the vector
    q + a = (37/33, 4/33) pairs to (70/33, -29/33), landing in the s2
    chamber, and the ugly index against s1 collects
    2*(floor(58/33) - floor(-58/33)) + 2*(floor(140/33) - floor(-140/33))
    = 6 + 18 = 24.
    """
    shift = canonical_shift(group_a2.system, group_a2.lattice, Mode.SMALL_IN_CHAMBER, F(3))
    assert shift.a == (F(4, 33), F(4, 33))
    W = group_a2.system.weyl_group()
    s1 = next(w for w in W if w.word == (0,))
    s2 = next(w for w in W if w.word == (1,))
    table = {w.name: filtration_weight(w, shift) for w in W}
    assert table == {
        "e": F(64, 33),
        "s1": F(98, 33),
        "s2": F(98, 33),
        "s1*s2": F(100, 33),
        "s2*s1": F(100, 33),
        "s1*s2*s1": F(134, 33),
    }
    q = (F(1), F(0))
    qa = tuple(x + y for x, y in zip(q, shift.a))
    assert group_a2.system.chamber_of(qa) == s2
    assert ugly_index(q, s1, shift) == 24


# -- the table lookups against the Fraction formulas they replace ------------


def _assert_lookups_match_oracles(shift):
    """Every public per-datum lookup, and the window tables the suite reads,
    against the oracles in ``tests/oracles.py`` at every datum (q, w, q),
    and the quilt index at (q, w, q') with q' the mirrored window point."""
    group = shift.system.weyl_group()
    table = shift
    points = shift.window_points()
    for iq, q in enumerate(points):
        lt = leading_term(q, shift)
        assert lt == oracles.leading_term(q, shift)
        assert lt.w == group.elements[table.chambers[iq]]
        for iw, w in enumerate(group):
            assert relative_degree(w, q, shift) == table.degrees[iq][iw]
            assert table.degrees[iq][iw] == oracles.relative_degree(w, q, shift)
            cls = oracles.classify(q, w, shift)
            assert classify(q, w, shift) is cls
            assert (table.chambers[iq] == iw) == (cls is QuiltClass.BAD)
            diagonal = quilt_index(QuiltDatum(shift, q, w, q))
            if cls is QuiltClass.BAD:
                assert diagonal == 0
                with pytest.raises(NotUgly):
                    ugly_index(q, w, shift)
                with pytest.raises(NotUgly):
                    oracles.ugly_index(q, w, shift)
            else:
                # the oracle sums over the flipped roots and re-checks the sum
                # against its own quilt index and for strict positivity
                assert ugly_index(q, w, shift) == diagonal == oracles.ugly_index(q, w, shift)
            if points[-1 - iq] != q:
                datum = QuiltDatum(shift, q, w, points[-1 - iq])
                assert quilt_index(datum) == oracles.quilt_index(datum)
    fil = [oracles.filtration_weight(w, shift) for w in group]
    assert [filtration_weight(w, shift) for w in group] == table.filtration == fil
    if shift.mode is Mode.SMALL_IN_CHAMBER:
        morse = [oracles.morse_index(w, shift) for w in group]
        assert [morse_index(w, shift) for w in group] == morse
        assert poincare_polynomial(shift) == oracles.poincare_polynomial(shift)
    assert parity_report(shift) == oracles.parity_report(shift)


@pytest.mark.parametrize("name", ["group-a1", "aii-a1", "sphere-a1", "group-a2", "ai-a2", "eiv-a2"])
def test_index_table_matches_oracles(name):
    entry = get_entry(name)
    for r in range(5):
        shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(r))
        _assert_lookups_match_oracles(shift)


@pytest.mark.parametrize("name", ["spin5-b2", "split-g2", "su4-a3", "cp3-bc1"])
def test_index_table_matches_oracles_extra_catalog(name):
    entry = get_entry(name, EXTRA_CATALOG)
    for r in range(5):
        shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(r))
        _assert_lookups_match_oracles(shift)


def test_index_table_matches_oracles_f4(f4_system, f4_lattice):
    # the shortest lattice vectors have norm 2, so r = 0 and r = 1 share the window {0}
    shift = canonical_shift(f4_system, f4_lattice, Mode.SMALL_IN_CHAMBER, F(1))
    assert len(shift.window_points()) == 1
    _assert_lookups_match_oracles(shift)


def test_index_lookups_match_oracles_in_regular_only_mode(group_a2):
    # a shift outside the base chamber: the chambers of q + a are not those
    # of q, and Morse indices are not defined
    a = (F(-1, 7), F(1, 11))
    shift = validate_generic(group_a2.system, group_a2.lattice, a, Mode.REGULAR_ONLY, F(3))
    _assert_lookups_match_oracles(shift)
    W = group_a2.system.weyl_group()
    for fn in (morse_index, oracles.morse_index):
        with pytest.raises(ModeMismatch, match="morse_index requires a small-in-chamber shift"):
            fn(W.identity, shift)
    for fn in (poincare_polynomial, oracles.poincare_polynomial):
        with pytest.raises(ModeMismatch):
            fn(shift)


def test_off_lattice_points_raise_where_the_oracles_compute(a1_shift):
    # the lattice of group-a1 is Z alpha, so q = alpha/3 is off it; the
    # table reads 2*alpha(q) as an integer and refuses, the oracles sum
    # floors of Fractions (ugly_index refuses in both, through QuiltDatum)
    W = a1_shift.system.weyl_group()
    q, s = (F(1, 3),), W.elements[1]
    assert oracles.relative_degree(s, q, a1_shift) == 2 * math.floor(F(-17, 15))
    assert oracles.classify(q, s, a1_shift) is QuiltClass.UGLY
    assert oracles.leading_term(q, a1_shift).w == W.identity
    calls = [
        lambda: relative_degree(s, q, a1_shift),
        lambda: classify(q, s, a1_shift),
        lambda: ugly_index(q, s, a1_shift),
        lambda: leading_term(q, a1_shift),
    ]
    for call in calls:
        with pytest.raises(InvariantViolation, match=r"^\(1/3\) is not a lattice point$"):
            call()


@pytest.mark.parametrize("name, catalog", [("group-a2", None), ("fi-f4", F4_CATALOG)])
def test_per_datum_lookups_never_enumerate_the_window(name, catalog):
    entry = get_entry(name, catalog)
    shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(5))
    W = shift.system.weyl_group()
    e, w = W.identity, W.elements[1]
    q = shift.lattice.basis[0]
    zero = tuple(F(0) for _ in q)
    relative_degree(w, q, shift)
    classify(q, w, shift)
    quilt_index(QuiltDatum(shift, q, w, zero))
    assert ugly_index(zero, w, shift) >= 1  # q = 0 lies in the base chamber
    filtration_weight(w, shift)
    morse_index(e, shift)
    leading_term(q, shift)
    assert "points" not in vars(shift)


def test_index_table_dies_with_its_shift(group_a2):
    # the window tables hold no reference back to the shift, so dropping it
    # frees the shift and its tables with the cycle collector off
    shift = canonical_shift(group_a2.system, group_a2.lattice, Mode.SMALL_IN_CHAMBER, F(2))
    assert shift.perms and shift.degrees
    ref = weakref.ref(shift)
    gc.disable()
    try:
        del shift
        assert ref() is None
    finally:
        gc.enable()


def test_shifts_built_alike_have_equal_tables(group_a2):
    shift, twin = (
        canonical_shift(group_a2.system, group_a2.lattice, Mode.SMALL_IN_CHAMBER, F(2))
        for _ in range(2)
    )
    assert shift is not twin
    assert shift.points == twin.points
    assert shift.chambers == twin.chambers
    assert shift.degrees == twin.degrees
    assert shift.perms == twin.perms
    assert shift.filtration == twin.filtration


def test_index_table_rejects_a_floor_boundary(group_a1):
    # 2 alpha(alpha/4) = 1: a shift built directly on a floor boundary
    system, lattice, a = group_a1.system, group_a1.lattice, (F(1, 4),)
    message = r"^2\*alpha\(q\+a\) = -1 at alpha=\(-1\), q=\(0\)$"
    with pytest.raises(FloorBoundary, match=message):
        GenericShift(system, lattice, a, Mode.REGULAR_ONLY, 0)
    # the message validate_generic gives for the same shift
    with pytest.raises(FloorBoundary, match=message):
        validate_generic(system, lattice, a, Mode.REGULAR_ONLY, F(0))
    # the oracles raise at the floor term
    shift = SimpleNamespace(system=system, lattice=lattice, a=a, window_radius=F(0))
    e, zero = system.weyl_group().identity, (F(0),)
    with pytest.raises(FloorBoundary):
        oracles.relative_degree(e, zero, shift)
    with pytest.raises(FloorBoundary):
        oracles.quilt_index(QuiltDatum(shift, zero, e, zero))


def test_index_table_morse_mode_mismatch(group_a1):
    shift = validate_generic(
        group_a1.system, group_a1.lattice, (F(1, 20),), Mode.REGULAR_ONLY, F(0)
    )
    with pytest.raises(ModeMismatch):
        shift.morse_index(0)


# -- the window permutations and filtration weights against w(q) -------------

PAIRS = ["group-a1", "aii-a1", "sphere-a1", "group-a2", "ai-a2", "eiv-a2"]


def _assert_perms_match_action(shift):
    group = shift.system.weyl_group()
    points = shift.window_points()
    table = shift
    for k, w in enumerate(group):
        assert [points[i] for i in table.perms[k]] == [w(q) for q in points]
        assert group.elements[table.inverses[k]] == group.inverse(w)


@pytest.mark.parametrize("name", PAIRS)
def test_window_perms_match_weyl_action(name):
    entry = get_entry(name)
    for r in range(4):
        shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(r))
        _assert_perms_match_action(shift)


def test_window_perms_match_weyl_action_f4(f4_system, f4_lattice):
    # r = 1 holds the origin alone (the shortest lattice vectors have norm 2)
    shift = canonical_shift(f4_system, f4_lattice, Mode.SMALL_IN_CHAMBER, F(2))
    assert len(shift.window_points()) == 49
    _assert_perms_match_action(shift)


def _assert_filtration_matches_oracle(shift):
    group = shift.system.weyl_group()
    assert shift.filtration == [oracles.filtration_weight(w, shift) for w in group]


@pytest.mark.parametrize("name", PAIRS)
def test_table_filtration_matches_filtration_weight(name):
    entry = get_entry(name)
    _assert_filtration_matches_oracle(
        canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(0))
    )


def test_table_filtration_matches_filtration_weight_f4(f4_system, f4_lattice):
    _assert_filtration_matches_oracle(
        canonical_shift(f4_system, f4_lattice, Mode.SMALL_IN_CHAMBER, F(0))
    )


def test_window_perms_reject_a_window_that_is_not_weyl_stable(group_a1):
    # the window {0, -1} cut from the worked shift's: s1 sends -1 to 1, outside it
    shift = validate_generic(
        group_a1.system, group_a1.lattice, (F(1, 20),), Mode.SMALL_IN_CHAMBER, F(3)
    )
    shift.points = shift.window_points()[:2]
    with pytest.raises(InvariantViolation, match="s1 moves a window point off the window"):
        shift.perms
