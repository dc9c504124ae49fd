"""The closed-form triple and plane model against the generic ``Fraction``
constructions they replaced (``tests/oracles.py``), and the frame certificate
that is built once per Gram matrix."""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import oracles
from rootquilt import get_entry, monotone_data, triangle
from rootquilt.errors import Degenerate, InvariantViolation
from rootquilt.suite import build_shift

ROOT = Path(__file__).resolve().parent.parent
EXTRA_CATALOG = str(ROOT / "tests" / "data" / "extra_catalog.json")
F4_CATALOG = str(ROOT / "bench" / "data" / "f4.json")

BUILT_IN = ("group-a1", "aii-a1", "sphere-a1", "group-a2", "ai-a2", "eiv-a2")
EXTRA = ("spin5-b2", "split-g2", "su4-a3", "cp3-bc1")


def _outcome(module, q, w, shift, md):
    """Everything the construction returns, or the Degenerate it raises."""
    try:
        triple = module.build_triple(q, w, shift, md)
    except Degenerate as exc:
        return str(exc)
    model = module.plane_model(triple)
    return (
        triple.l1, triple.l2, triple.l3,
        triple.p12, triple.p23, triple.p13, triple.difference,
        model.base, model.u_dir, model.v_dir,
    )


def _agree(specs, shift, md) -> int:
    """Compare the closed forms with the oracle on every spec; count the degenerate ones."""
    degenerate = 0
    for q, w in specs:
        got = _outcome(triangle, q, w, shift, md)
        assert got == _outcome(oracles, q, w, shift, md), (q, w.name)
        degenerate += isinstance(got, str)
    return degenerate


def _setup(catalog, name, radius, tau=None):
    entry = get_entry(name, catalog)
    shift = build_shift(entry, None, F(radius))
    return shift, monotone_data(entry.system, tau), entry.system.weyl_group()


def _specs(shift, group, sample=None):
    """Every (window point, Weyl element), or a seeded sample of ``sample`` of them."""
    specs = [(q, w) for q in shift.window_points() for w in group]
    return specs if sample is None else random.Random(20261019).sample(specs, sample)


# The oracle takes about 6 ms a spec at rank 3 and 20 ms at rank 4, so the
# two largest cases are seeded samples.
@pytest.mark.parametrize(
    "catalog, name, radius, sample",
    [(None, name, 3, None) for name in BUILT_IN]
    + [(EXTRA_CATALOG, name, 2, None) for name in EXTRA if name != "su4-a3"]
    + [(EXTRA_CATALOG, "su4-a3", 2, 40), (F4_CATALOG, "fi-f4", 1, 30)],
)
def test_closed_forms_match_the_oracle(catalog, name, radius, sample):
    shift, md, group = _setup(catalog, name, radius)
    specs = _specs(shift, group, sample)
    assert len(specs) >= 6
    _agree(specs, shift, md)


def test_both_raise_degenerate_on_the_same_specs(a1_shift):
    # tau = 21/80 puts X0 on q + a for q = 1
    md = monotone_data(a1_shift.system, F(21, 80))
    specs = _specs(a1_shift, a1_shift.system.weyl_group())
    assert _agree(specs, a1_shift, md) >= 1


def test_the_frame_is_certified_once_per_gram():
    triangle._frame.cache_clear()
    shift, md, group = _setup(None, "group-a2", 1)
    for q in shift.window_points():
        for w in group:
            triangle.plane_model(triangle.build_triple(q, w, shift, md))
    info = triangle._frame.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits > 1


def test_an_asymmetric_gram_is_not_isotropic():
    with pytest.raises(InvariantViolation, match="direction space is not isotropic"):
        triangle._frame(((F(2), F(1)), (F(0), F(2))))


def test_a_symmetric_gram_gives_the_unit_frame():
    (dirs1, rows1), (dirs2, rows2), (dirs3, rows3) = triangle._frame(((F(2), F(-1)), (F(-1), F(2))))
    assert dirs1 == ((0, 0, 1, 0), (0, 0, 0, 1)) == rows3
    assert dirs2 == ((-1, 0, 1, 0), (0, -1, 0, 1))
    assert rows2 == ((1, 0, 1, 0), (0, 1, 0, 1))
    assert dirs3 == ((1, 0, 0, 0), (0, 1, 0, 0)) == rows1


def _tampered_triple(a1_shift, **changes):
    md = monotone_data(a1_shift.system, F(1, 8))
    triple = triangle.build_triple((F(1),), a1_shift.system.weyl_group().elements[1], a1_shift, md)
    for name, value in changes.items():
        setattr(triple, name, value)
    return triple


def test_a_wrong_intersection_point_fails_the_plane_check(a1_shift):
    triple = _tampered_triple(a1_shift, p23=(F(1), F(0)))
    with pytest.raises(InvariantViolation, match="wrong plane coordinates"):
        triangle.plane_model(triple)


def test_a_wrong_boundary_line_fails_the_plane_check(a1_shift):
    triple = _tampered_triple(a1_shift)
    triple.l2 = triangle.AffineSubspace(
        triple.l2.point, triple.l2.directions, ((1, 0),), triple.l2.eq_rhs
    )
    with pytest.raises(InvariantViolation, match="pulled-back boundary line is wrong"):
        triangle.plane_model(triple)
