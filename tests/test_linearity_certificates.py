"""The implication and area sweeps of ``verify``, certified by linearity.

``IndexTable.certify_implication`` proves that every generator's action is
tau * (degree + filtration), so no pair can violate the energy gap; and
``IndexTable.certify_area`` proves area = tau * Maslov at every capping
class.  Each test compares what ``verify`` reports through a certificate
with the Fraction pair loop or the capping oracles it replaces, and checks
that the certificate is what decided: it holds on the catalog data and fails
on a perturbed x0 image or tau, where the check must raise rather than
report a pass.
"""

from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from rootquilt import get_entry
from rootquilt.errors import InvariantViolation, RootQuiltError
from rootquilt.indices import IndexTable, capping_area, capping_maslov, index_table, monotone_data
from rootquilt.linalg import add, format_rational, format_vec, gram_pair, scale
from rootquilt.suite import (
    Report,
    run_suite,
    _add_area_sweep,
    _add_implication_check,
    _add_implication_sweep,
    build_shift,
)

ROOT = Path(__file__).resolve().parent.parent
EXTRA_CATALOG = str(ROOT / "tests" / "data" / "extra_catalog.json")
F4_CATALOG = str(ROOT / "bench" / "data" / "f4.json")

BUILT_IN = ("group-a1", "aii-a1", "sphere-a1", "group-a2", "ai-a2", "eiv-a2")

# (catalog, pair, radius, tau, epsilon); None is the built-in catalog or the default
CASES = (
    [(None, name, r, None, None) for name in BUILT_IN for r in range(4)]
    + [
        (EXTRA_CATALOG, "spin5-b2", 3, None, None),
        (EXTRA_CATALOG, "split-g2", 4, None, None),
        (EXTRA_CATALOG, "su4-a3", 4, None, None),
        (EXTRA_CATALOG, "cp3-bc1", 2, None, None),
        (F4_CATALOG, "fi-f4", 1, None, None),
        (None, "group-a1", 3, F(1, 8), F(1, 40)),
        (None, "group-a2", 3, F(3, 7), F(1, 50)),
        (None, "ai-a2", 2, F(5), F(1, 30)),
    ]
)


def _ids(case):
    _, name, r, tau, epsilon = case
    return f"{name}-r{r}" + ("" if tau is None else f"-tau{tau}-eps{epsilon}")


def _setup(catalog, name, radius, tau, epsilon):
    entry = get_entry(name, catalog)
    shift = build_shift(entry, epsilon, F(radius))
    md = monotone_data(entry.system, tau)
    group = entry.system.weyl_group()
    return shift, md, group, index_table(shift), shift.window_points()


def _pair_loop(shift, table, points, elements, x0_images):
    """The report of the pair loop, from its own (degree, action, filtration) rows."""
    gram = shift.system.gram
    rows = [
        (table.degrees[iq][iw], gram_pair(gram, add(q, shift.a), x), table.filtration[iw])
        for iq, q in enumerate(points)
        for iw, x in enumerate(x0_images)
    ]
    report = Report("t", "verify", {})
    _add_implication_sweep(report, rows, points, elements)
    return report


def _implication_check(table, x0_images, tau):
    report = Report("t", "verify", {})
    _add_implication_check(report, table, x0_images, tau)
    return report


def _raises_action_identity(table, x0_images, tau):
    with pytest.raises(InvariantViolation, match="action identity failed"):
        _implication_check(table, x0_images, tau)


def _same(a: Report, b: Report) -> bool:
    return a.to_document() == b.to_document()


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_certified_implication_matches_the_pair_loop(case):
    shift, md, group, table, points = _setup(*case)
    images = [w(md.x0) for w in group]
    assert table.certify_implication(images, md.tau)
    fast = _implication_check(table, images, md.tau)
    loop = _pair_loop(shift, table, points, group.elements, images)
    assert _same(fast, loop)
    n = len(points) * group.order
    assert [r["value"] for r in fast.rows] == [str(n * n)] * 2
    assert fast.checks[0].detail == f"{n * n} data pairs"


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_certified_area_matches_the_capping_oracles(case):
    shift, md, group, table, points = _setup(*case)
    assert table.certify_area(md.x0, md.tau)
    system = shift.system
    assert table.maslov == [capping_maslov(system, q) for q in points]
    fast = Report("t", "verify", {})
    _add_area_sweep(fast, table, points, md)
    assert [(r["item"], r["value"]) for r in fast.rows] == [
        (format_vec(q), f"{capping_maslov(system, q)}:{format_rational(capping_area(q, md))}")
        for q in points
    ]
    assert (fast.checks[0].status, fast.checks[0].detail) == (
        "pass",
        f"{len(points)} capping classes",
    )


def _perturbed_images(images, k, factor):
    return [scale(factor, x) if i == k else x for i, x in enumerate(images)]


@pytest.mark.parametrize(
    "name, radius, k, factor",
    [
        ("group-a1", 3, 1, F(-1)),
        ("group-a2", 2, 5, F(-1)),
        ("ai-a2", 3, 2, F(3)),
        ("eiv-a2", 1, 0, F(1, 2)),
        ("group-a2", 0, 3, F(101, 100)),
    ],
)
def test_perturbed_x0_image_fails_the_certificate(name, radius, k, factor):
    shift, md, group, table, points = _setup(None, name, radius, None, None)
    images = _perturbed_images([w(md.x0) for w in group], k, factor)
    assert not table.certify_implication(images, md.tau)
    _raises_action_identity(table, images, md.tau)


def test_certificate_refuses_data_the_pair_loop_rejects():
    # s1's image reversed: the actions of s1 change sign, so at the origin
    # the action drops from s2 to s1 in one degree group while the
    # filtration does not; the certificate must not report a pass there
    shift, md, group, table, points = _setup(None, "group-a2", 2, None, None)
    images = _perturbed_images([w(md.x0) for w in group], 1, F(-1))
    loop = _pair_loop(shift, table, points, group.elements, images)
    [check] = loop.checks
    assert (check.status, check.detail) == (
        "fail",
        "1764 data pairs; first violation (s2;0,0) -> (s1;0,0)",
    )
    assert [r["value"] for r in loop.rows] == ["1764", "1753"]
    _raises_action_identity(table, images, md.tau)


@pytest.mark.parametrize("tau_factor", [F(2), F(1, 3), F(-1), F(0)])
def test_perturbed_tau_fails_the_certificate(tau_factor):
    shift, md, group, table, points = _setup(None, "ai-a2", 2, None, None)
    images = [w(md.x0) for w in group]
    tau = tau_factor * md.tau
    assert not table.certify_implication(images, tau)
    _raises_action_identity(table, images, tau)


def test_negative_tau_fails_the_certificate():
    # x0 = 2 tau rho with tau < 0: the action identity holds, but the
    # actions run against the filtration, so the certificate must not.  In
    # B2's window some degree groups hold several filtration weights, which
    # the reversed actions turn into violations.
    shift, md, group, table, points = _setup(EXTRA_CATALOG, "spin5-b2", 3, None, None)
    images = [scale(F(-1), w(md.x0)) for w in group]
    assert not table.certify_implication(images, -md.tau)
    _raises_action_identity(table, images, -md.tau)
    assert _pair_loop(shift, table, points, group.elements, images).checks[0].status == "fail"


def test_failed_certificate_aborts_verify_naming_the_check(monkeypatch):
    monkeypatch.setattr(IndexTable, "certify_implication", lambda self, images, tau: False)
    with pytest.raises(
        RootQuiltError, match="check implication_sweep aborted: action identity failed"
    ):
        run_suite(get_entry("group-a1"), radius=F(1))


def test_wrong_filtration_weight_fails_the_certificate():
    # the certificate reads a through the pairing at a: a wrong filtration
    # weight of one element must fail it even though every basis pairing holds
    shift, md, group, table, points = _setup(None, "group-a2", 1, None, None)
    images = [w(md.x0) for w in group]
    saved = table.filtration[2]
    table.filtration[2] = saved + 1
    try:
        assert not table.certify_implication(images, md.tau)
    finally:
        table.filtration[2] = saved
    assert table.certify_implication(images, md.tau)


@pytest.mark.parametrize("field, factor", [("x0", F(2)), ("tau", F(3)), ("x0", F(-1))])
def test_perturbed_area_data_fail_the_area_certificate(field, factor):
    # even at radius 0, whose only capping class has area 0, the certificate
    # checks the lattice basis, where the capping oracles raise
    shift, md, group, table, points = _setup(None, "group-a2", 0, None, None)
    bad = replace(md, **{field: scale(factor, md.x0) if field == "x0" else factor * md.tau})
    assert not table.certify_area(bad.x0, bad.tau)
    for b in shift.lattice.basis:
        with pytest.raises(InvariantViolation, match="area-index proportionality failed"):
            capping_area(b, bad)
    with pytest.raises(InvariantViolation, match="area-index proportionality failed"):
        _add_area_sweep(Report("t", "verify", {}), table, points, bad)
