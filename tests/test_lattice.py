"""Lattice windows, shift validation, chord and generator enumeration."""

import functools
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rootquilt import (
    BudgetExceeded,
    FloorBoundary,
    InvariantViolation,
    Lattice,
    LatticeNotStable,
    Mode,
    NotInChamber,
    NotRegular,
    NotSmall,
    RestrictedRootSystem,
    RootQuiltError,
    canonical_shift,
    chords,
    generators,
    get_entry,
    load_catalog,
    validate_generic,
)
from rootquilt.lattice import DEFAULT_POINT_CAP, GenericShift, weighted_root_sum
from rootquilt.linalg import add, gram_pair, inverse, mat_mul, scale, transpose, vec

PAIRS = ("group-a1", "aii-a1", "sphere-a1", "group-a2", "ai-a2", "eiv-a2")


def brute_force_a2_count(radius2: F) -> int:
    """Independent oracle: scan a coordinate box and count by the exact norm."""
    count = 0
    for m in range(-10, 11):
        for n in range(-10, 11):
            norm2 = 2 * m * m - 2 * m * n + 2 * n * n
            if norm2 <= radius2:
                count += 1
    return count


def test_points_radius_zero(group_a1):
    assert group_a1.lattice.points(F(0)) == [(F(0),)]


def test_points_a1_radius_three(group_a1):
    # |k alpha| = |k| sqrt(2) <= 3 iff k*k <= 4.5 iff |k| <= 2
    pts = group_a1.lattice.points(F(3))
    assert sorted(pts) == [((F(k),)) for k in (-2, -1, 0, 1, 2)]


def test_points_a2_radius_two(group_a2):
    pts = group_a2.lattice.points(F(2))
    assert len(pts) == 7
    assert len(pts) == brute_force_a2_count(F(4))


def test_points_a2_radius_three_matches_oracle(group_a2):
    pts = group_a2.lattice.points(F(3))
    assert len(pts) == brute_force_a2_count(F(9))


def test_points_ordering_is_graded(group_a1):
    pts = group_a1.lattice.points(F(3))
    norms = [group_a1.system.norm2(q) for q in pts]
    assert norms == sorted(norms)
    assert pts[0] == (F(0),)


@settings(max_examples=20, deadline=None)
@given(r1=st.integers(min_value=0, max_value=4), r2=st.integers(min_value=0, max_value=4))
def test_window_monotone(group_a2, r1, r2):
    if r1 > r2:
        r1, r2 = r2, r1
    small = group_a2.lattice.points(F(r1))
    large = group_a2.lattice.points(F(r2))
    assert set(small) <= set(large)
    # graded ordering makes the smaller window a prefix of the larger
    assert large[: len(small)] == small


def test_window_weyl_symmetric(group_a2):
    pts = set(group_a2.lattice.points(F(3)))
    W = group_a2.system.weyl_group()
    for q in pts:
        assert tuple(-x for x in q) in pts
        for w in W:
            assert w(q) in pts


def test_budget_exceeded(group_a2):
    from rootquilt import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        group_a2.lattice.points(F(4), cap=3)


def test_weyl_action_examples(group_a2):
    sys_ = group_a2.system
    W = sys_.weyl_group()
    lat = group_a2.lattice
    q = (F(1), F(1))
    assert oracles.weyl_action(lat, W.identity, q) == q
    s1 = next(w for w in W if w.word == (0,))
    # s1 sends the second coroot to the sum of the two coroots
    assert oracles.weyl_action(lat, s1, (F(0), F(1))) == (F(1), F(1))


def test_weyl_action_a1(group_a1):
    W = group_a1.system.weyl_group()
    s = W.elements[1]
    assert oracles.weyl_action(group_a1.lattice, s, (F(1),)) == (F(-1),)


def test_weyl_action_rejects_unstable(group_a2):
    lat = Lattice(group_a2.system, [(F(1), F(0)), (F(0), F(2))])
    W = group_a2.system.weyl_group()
    s2 = next(w for w in W if w.word == (1,))
    with pytest.raises(LatticeNotStable, match=r"^s2 moves \(1, 0\) off the lattice$"):
        oracles.weyl_action(lat, s2, (F(1), F(0)))
    with pytest.raises(LatticeNotStable, match=r"^\(1/2, 0\) is not a lattice point$"):
        oracles.weyl_action(lat, s2, (F(1, 2), F(0)))
    with pytest.raises(LatticeNotStable, match=r"^s2 moves basis vector \(1, 0\) off"):
        lat.check_weyl_stable()


def full_group_stability(lattice):
    """Verbatim copy of the scan over every group element that
    ``check_weyl_stable`` replaced; returns the message of the first failure."""
    for w in lattice.system.weyl_group():
        for b in lattice.basis:
            if not lattice.contains(w(b)):
                return f"{w.name} moves basis vector {_vec(b)} off the lattice"
    return None


def _simple_stability(lattice):
    try:
        lattice.check_weyl_stable()
    except LatticeNotStable as exc:
        return str(exc)
    return None


def test_check_weyl_stable_matches_the_full_group_scan(catalog, group_a2, f4_system, f4_lattice):
    lattices = [entry.lattice for entry in catalog] + [f4_lattice]
    for basis in (
        [(1, 0), (0, 2)], [(2, 0), (0, 1)], [(1, 1), (0, 2)], [(2, 0), (1, 1)], [(1, 0), (1, 3)]
    ):
        lattices.append(Lattice(group_a2.system, [vec(b) for b in basis]))
    for k in range(4):
        basis = list(f4_lattice.basis)
        basis[k] = tuple(2 * x for x in basis[k])
        lattices.append(Lattice(f4_system, basis))
    failures = 0
    for lat in lattices:
        expected = full_group_stability(lat)
        assert _simple_stability(lat) == expected
        failures += expected is not None
    assert failures == 9


def test_validate_generic_worked_case(group_a1):
    # 2 alpha(k alpha + alpha/20) = 4k + 1/5, never an integer for |k| <= 2
    shift = validate_generic(
        group_a1.system, group_a1.lattice, (F(1, 20),), Mode.SMALL_IN_CHAMBER, F(3)
    )
    assert shift.window_radius == 3
    assert len(shift.window_points()) == 5


def test_validate_generic_zero_not_regular(group_a1):
    with pytest.raises(NotRegular):
        validate_generic(group_a1.system, group_a1.lattice, (F(0),), Mode.REGULAR_ONLY, F(0))


def test_validate_generic_floor_boundary(group_a1):
    # 2 alpha(alpha/4) = 1 is an integer already at q = 0
    with pytest.raises(FloorBoundary) as err:
        validate_generic(group_a1.system, group_a1.lattice, (F(1, 4),), Mode.REGULAR_ONLY, F(0))
    assert err.value.point == (F(0),)


def test_validate_generic_chamber_and_smallness(group_a1):
    with pytest.raises(NotInChamber):
        validate_generic(
            group_a1.system, group_a1.lattice, (F(-1, 20),), Mode.SMALL_IN_CHAMBER, F(0)
        )
    # 2 alpha(alpha/3) = 4/3: regular, off every floor boundary, but not small
    with pytest.raises(NotSmall):
        validate_generic(
            group_a1.system, group_a1.lattice, (F(1, 3),), Mode.SMALL_IN_CHAMBER, F(0)
        )


def test_validate_generic_monotone_in_radius(group_a1):
    big = validate_generic(
        group_a1.system, group_a1.lattice, (F(1, 20),), Mode.SMALL_IN_CHAMBER, F(4)
    )
    assert big is not None
    for r in (F(0), F(1), F(2), F(3)):
        assert validate_generic(
            group_a1.system, group_a1.lattice, (F(1, 20),), Mode.SMALL_IN_CHAMBER, r
        )


def test_canonical_shift_group_a1(group_a1):
    # epsilon scan: 2 alpha(a) = 8 eps must drop below 1/2, first at eps = 1/17
    shift = canonical_shift(group_a1.system, group_a1.lattice, Mode.SMALL_IN_CHAMBER, F(3))
    assert shift.a == (F(2, 17),)


def test_generator_and_chord_counts(group_a1):
    shift = validate_generic(
        group_a1.system, group_a1.lattice, (F(1, 20),), Mode.SMALL_IN_CHAMBER, F(3)
    )
    assert len(generators(shift)) == 10
    assert len(chords(shift)) == 5


def test_radius_zero_counts(catalog):
    for entry in catalog:
        shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(0))
        assert len(chords(shift)) == 1
        assert len(generators(shift)) == entry.system.weyl_group().order


def test_f4_generator_count_at_radius_zero(f4_system):
    # coroot lattice: long coroots equal the roots, short coroots are doubled
    basis = [
        (F(0), F(1), F(-1), F(0)),
        (F(0), F(0), F(1), F(-1)),
        (F(0), F(0), F(0), F(2)),
        (F(1), F(-1), F(-1), F(-1)),
    ]
    lat = Lattice(f4_system, basis)
    lat.check_weyl_stable()
    shift = canonical_shift(f4_system, lat, Mode.SMALL_IN_CHAMBER, F(0))
    assert len(generators(shift)) == 1152


def test_lattice_rejects_dependent_basis(group_a2):
    from rootquilt import InvariantViolation

    with pytest.raises(InvariantViolation):
        Lattice(group_a2.system, [(F(1), F(0)), (F(2), F(0))])


def test_chord_integrality_of_builtin_lattices(catalog):
    for entry in catalog:
        for b in entry.lattice.basis:
            for alpha in entry.system.roots:
                assert (2 * entry.system.pairing(alpha, b)).denominator == 1


def test_canonical_shift_all_entries_frozen(catalog):
    """Hand-derived first passing epsilon per entry: the largest root value
    2*theta(a) must drop below 1/2, so eps is the first odd reciprocal under
    1/(4*theta(rho))."""
    expected = {
        "group-a1": ((F(2, 17),),),  # 8 eps < 1/2 -> eps = 1/17
        "group-a2": ((F(4, 33), F(4, 33)),),  # 16 eps < 1/2 -> eps = 1/33
        "ai-a2": ((F(2, 17), F(2, 17)),),  # 8 eps < 1/2 at m = 1
        "aii-a1": ((F(4, 33),),),  # 16 eps < 1/2 -> eps = 1/33
        "sphere-a1": ((F(6, 49),),),  # 24 eps < 1/2 -> eps = 1/49
        "eiv-a2": ((F(16, 129), F(16, 129)),),  # 64 eps < 1/2 -> eps = 1/129
    }
    for entry in catalog:
        shift = canonical_shift(entry.system, entry.lattice, Mode.SMALL_IN_CHAMBER, F(3))
        assert shift.a == expected[entry.name][0], entry.name


def test_lattice_rejects_non_integral_basis(group_a1):
    with pytest.raises(InvariantViolation) as err:
        Lattice(group_a1.system, [(F(1, 3),)])
    assert str(err.value) == (
        "2*alpha(b) = -4/3 is not integral at root alpha=(-1) and basis vector b=(1/3)"
    )


def test_two_alpha_rejects_a_non_lattice_point(group_a1):
    with pytest.raises(InvariantViolation, match="not a lattice point"):
        group_a1.lattice.two_alpha((F(1, 2),))


@pytest.mark.parametrize("name", PAIRS)
def test_two_alpha_matches_the_pairing(name):
    entry = get_entry(name)
    sys_ = entry.system
    for q in entry.lattice.points(F(3)):
        assert entry.lattice.two_alpha(q) == tuple(2 * sys_.pairing(al, q) for al in sys_.roots)


# -- the window scans the roots-only checks replace, kept verbatim as oracles --


def _vec(v):
    return "(" + ", ".join(str(x) for x in v) + ")"


def _window_validate_generic(system, lattice, a, mode, radius, points=None):
    a = vec(a)
    radius = F(radius)
    walls = [al for al in system.roots if system.pairing(al, a) == 0]
    if walls:
        raise NotRegular(walls)
    points = lattice.points(radius) if points is None else points
    for q in points:
        qa = add(q, a)
        for al in system.roots:
            val = 2 * system.pairing(al, qa)
            if val.denominator == 1:
                raise FloorBoundary(al, q, f"2*alpha(q+a) = {val} at alpha={_vec(al)}, q={_vec(q)}")
    if mode is Mode.SMALL_IN_CHAMBER:
        for beta in system.simple_roots:
            if system.pairing(beta, a) <= 0:
                raise NotInChamber(f"shift fails beta={_vec(beta)}")
        for al in system.roots:
            if abs(2 * system.pairing(al, a)) >= F(1, 2):
                raise NotSmall(f"|2*alpha(a)| >= 1/2 at alpha={_vec(al)}")
    shift = GenericShift(system, lattice, a, mode, radius)
    shift.points = points
    return shift


def _window_canonical_shift(system, lattice, mode, radius):
    rho = weighted_root_sum(system)
    points = lattice.points(F(radius))
    for d in range(1, 10_001):
        eps = F(1, 2 * d + 1)
        try:
            return _window_validate_generic(system, lattice, scale(eps, rho), mode, radius, points)
        except (NotRegular, FloorBoundary, NotInChamber, NotSmall):
            continue
    raise InvariantViolation("no canonical shift found; data is degenerate")


def _outcome(fn, *args):
    try:
        shift = fn(*args)
    except (NotRegular, FloorBoundary, NotInChamber, NotSmall) as exc:
        return (
            type(exc),
            getattr(exc, "root", None),
            getattr(exc, "point", None),
            getattr(exc, "walls", None),
            str(exc),
        )
    return shift.a, shift.mode, shift.window_radius, shift.window_points()


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["group-a1", "group-a2", "ai-a2"]),
    coords=st.lists(st.fractions(-1, 1, max_denominator=12), min_size=2, max_size=2),
    mode=st.sampled_from(list(Mode)),
    radius=st.integers(0, 3),
)
def test_validate_generic_matches_the_window_scan(catalog, name, coords, mode, radius):
    entry = next(e for e in catalog if e.name == name)
    a = tuple(coords[: entry.rank])
    args = (entry.system, entry.lattice, a, mode, F(radius))
    assert _outcome(validate_generic, *args) == _outcome(_window_validate_generic, *args)


@pytest.mark.parametrize("name", PAIRS)
def test_canonical_shift_matches_the_window_scan(name):
    entry = get_entry(name)
    for mode in Mode:
        for r in range(7):
            got = canonical_shift(entry.system, entry.lattice, mode, F(r))
            want = _window_canonical_shift(entry.system, entry.lattice, mode, F(r))
            assert got.a == want.a, (mode, r)
            assert got.window_points() == want.window_points()


# -- the Fraction box sweep the integer window sweep replaces, kept verbatim --

EXTRA_CATALOG = str(Path(__file__).resolve().parent / "data" / "extra_catalog.json")
EXTRA_PAIRS = ("spin5-b2", "split-g2", "su4-a3", "cp3-bc1")


def _fraction_points(lattice, radius, cap=DEFAULT_POINT_CAP):
    """The per-point ``Fraction`` sweep of the box, with the norm matrix
    rebuilt from the public basis."""
    bt = lattice.basis
    norm_matrix = mat_mul(bt, mat_mul(lattice.system.gram, transpose(bt)))
    inv_norm = inverse(norm_matrix)
    radius = F(radius)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    r2 = radius * radius
    n = lattice.system.rank
    bounds = []
    for i in range(n):
        b2 = r2 * inv_norm[i][i]
        bounds.append(math.isqrt(math.floor(b2)))
    found = []
    coords = [0] * n

    def sweep(i):
        if i == n:
            c = vec(coords)
            q2 = gram_pair(norm_matrix, c, c)
            if q2 <= r2:
                found.append((q2, tuple(coords)))
                if len(found) > cap:
                    raise BudgetExceeded(f"window holds more than {cap} lattice points")
            return
        for k in range(-bounds[i], bounds[i] + 1):
            coords[i] = k
            sweep(i + 1)
        coords[i] = 0

    sweep(0)
    found.sort()
    return [lattice.from_coords(c) for _, c in found]


@functools.cache
def _all_entries():
    return tuple(get_entry(n) for n in PAIRS) + tuple(get_entry(n, EXTRA_CATALOG) for n in EXTRA_PAIRS)


@pytest.mark.parametrize("entry", _all_entries(), ids=PAIRS + EXTRA_PAIRS)
def test_points_match_the_fraction_sweep(entry):
    for r in range(7):
        assert entry.lattice.points(F(r)) == _fraction_points(entry.lattice, F(r)), r


@settings(max_examples=80, deadline=None)
@example(index=3, radius=F(5, 2))
@example(index=1, radius=F(7, 3))
@example(index=7, radius=F(7, 3))
@given(
    index=st.integers(0, len(PAIRS + EXTRA_PAIRS) - 1),
    radius=st.fractions(0, 5, max_denominator=9),
)
def test_points_match_the_fraction_sweep_at_fractional_radii(index, radius):
    lattice = _all_entries()[index].lattice
    assert lattice.points(radius) == _fraction_points(lattice, radius)


def test_points_match_the_fraction_sweep_on_f4(f4_lattice):
    for r in (F(0), F(1), F(3, 2), F(2), F(5, 2), F(3)):
        assert f4_lattice.points(r) == _fraction_points(f4_lattice, r), r


def test_points_budget_matches_the_fraction_sweep(group_a2):
    for cap in (0, 3, 18):
        with pytest.raises(BudgetExceeded) as got:
            group_a2.lattice.points(F(4), cap=cap)
        with pytest.raises(BudgetExceeded) as want:
            _fraction_points(group_a2.lattice, F(4), cap=cap)
        assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="radius must be non-negative"):
        group_a2.lattice.points(F(-1, 2))


# -- certification reads the roots alone --------------------------------------


def _no_window(self, radius, cap=DEFAULT_POINT_CAP):
    raise AssertionError("the window was enumerated")


def test_certification_enumerates_no_window(catalog, monkeypatch):
    monkeypatch.setattr(Lattice, "points", _no_window)
    for entry in catalog:
        for mode in Mode:
            shift = canonical_shift(entry.system, entry.lattice, mode, F(400_000))
            assert validate_generic(entry.system, entry.lattice, shift.a, mode, F(400_000)) == shift
    group_a1 = get_entry("group-a1")
    for a in ((F(0),), (F(1, 4),), (F(-1, 20),), (F(1, 3),)):
        with pytest.raises((NotRegular, FloorBoundary, NotInChamber, NotSmall)):
            validate_generic(group_a1.system, group_a1.lattice, a, Mode.SMALL_IN_CHAMBER, F(3))
    with pytest.raises(ValueError, match="radius must be non-negative"):
        validate_generic(group_a1.system, group_a1.lattice, (F(1, 20),), radius=F(-1, 2))


# -- the integer epsilon scan against the Fraction scan it replaced -----------

F4_CATALOG = str(Path(__file__).resolve().parent.parent / "bench" / "data" / "f4.json")


def _scan_outcome(fn, system, lattice, mode, radius):
    try:
        shift = fn(system, lattice, mode, radius)
    except RootQuiltError as exc:
        return type(exc), str(exc)
    return shift.a, shift.mode, shift.window_radius


def _three_quarter_a1(mult):
    """A1 with squared root length 3/4: 2*alpha(rho) = 3 mult / 2, so at
    epsilon = 1/3 the value is exactly 1/2 (mult 1) or an integer (mult 2)."""
    roots = [(F(1),), (F(-1),)]
    system = RestrictedRootSystem(((F(3, 4),),), roots, {r: mult for r in roots}, (F(1),))
    return system, Lattice(system, [(F(2),)])


SCAN_CATALOGS = {"built-in": None, "extra": EXTRA_CATALOG, "f4": F4_CATALOG}


@pytest.mark.parametrize("source", [*SCAN_CATALOGS, "three-quarter-a1"])
def test_canonical_shift_matches_the_fraction_scan(source):
    if source == "three-quarter-a1":
        cases = [_three_quarter_a1(mult) for mult in (1, 2, 3)]
    else:
        cases = [(entry.system, entry.lattice) for entry in load_catalog(SCAN_CATALOGS[source])]
    assert cases
    for system, lattice in cases:
        for mode in Mode:
            for r in range(5):
                want = _scan_outcome(oracles.canonical_shift, system, lattice, mode, F(r))
                got = _scan_outcome(canonical_shift, system, lattice, mode, F(r))
                assert got == want, (system.name, mode, r)
