"""Acceptance criteria, one test per criterion, with stated budgets.

Each test prints a single PASS line once its assertions hold, so running
``pytest tests/test_acceptance.py -v -s`` gives one line per criterion.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

from rootquilt import (
    Generator,
    QuiltClass,
    QuiltDatum,
    RestrictedRootSystem,
    capping_area,
    capping_maslov,
    classify,
    filtration_weight,
    finitely_generated_witness,
    get_entry,
    load_catalog,
    monotone_data,
    parity_report,
    poincare_polynomial,
    quilt_index,
    solve_triangle,
    star_unit_sector,
    triangularity_certificate,
    ugly_index,
    validate_generic,
    verify_hull,
    zero_index_implication,
)
from rootquilt.lattice import canonical_shift
from rootquilt.linalg import identity
from rootquilt.triangle import boundary_deviation

from conftest import f4_root_vectors

REPO = Path(__file__).resolve().parent.parent
SWEEP_ENTRIES = ("group-a1", "group-a2", "ai-a2", "aii-a1")


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: {text}: PASS")


def test_criterion_01_monotone_data():
    t0 = time.monotonic()
    for entry in load_catalog():
        sys_ = entry.system
        md = monotone_data(sys_)
        for beta in sys_.simple_roots:
            assert sys_.pairing(beta, md.rho) > 0
        # the defining identity, evaluated independently on each basis vector
        for b in entry.lattice.basis:
            lhs = sys_.pairing(b, md.x0)
            rhs = 2 * md.tau * sum(
                (sys_.mult[al] * sys_.pairing(al, b) for al in sys_.positive_roots), F(0)
            )
            assert lhs == rhs
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"monotone data for all entries in {elapsed:.3f}s")


def test_criterion_02_bad_ugly_sweep():
    t0 = time.monotonic()
    total_bad = total_ugly = 0
    for name in SWEEP_ENTRIES:
        entry = get_entry(name)
        shift = canonical_shift(entry.system, entry.lattice, F(4))
        for q in shift.window_points():
            for w in entry.system.weyl_group():
                if classify(q, w, shift) is QuiltClass.BAD:
                    assert quilt_index(QuiltDatum(shift, q, w, q)) == 0
                    total_bad += 1
                else:
                    idx = ugly_index(q, w, shift)
                    assert idx >= 1
                    assert idx == quilt_index(QuiltDatum(shift, q, w, q))
                    total_ugly += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(2, f"{total_bad} bad all index 0, {total_ugly} ugly all positive in {elapsed:.1f}s")


def test_criterion_03_worked_exact_values():
    entry = get_entry("group-a1")
    sys_ = entry.system
    md = monotone_data(sys_, F(1, 8))
    shift = validate_generic(sys_, entry.lattice, (F(1, 20),), F(3))
    W = sys_.weyl_group()
    s = W.elements[1]
    # independent constants from hand evaluation of the index and capping formulas
    assert md.x0 == (F(1, 2),)  # X0 = alpha/2
    assert filtration_weight(W.identity, shift) == F(2, 5)
    assert filtration_weight(s, shift) == F(8, 5)
    assert ugly_index((F(1),), s, shift) == 18
    assert capping_maslov(sys_, (F(1),)) == -8
    assert capping_area((F(1),), md) == F(-1)
    assert capping_area((F(1),), md) == md.tau * capping_maslov(sys_, (F(1),))
    report(3, "worked exact values (x0, filtration, ugly index 18, maslov -8, area -1)")


def test_criterion_04_implication_sweep():
    t0 = time.monotonic()
    checked = 0
    for name in SWEEP_ENTRIES:
        entry = get_entry(name)
        shift = canonical_shift(entry.system, entry.lattice, F(3))
        md = monotone_data(entry.system)
        data = [(q, w) for q in shift.window_points() for w in entry.system.weyl_group()]
        for d_in in data:
            for d_out in data:
                assert zero_index_implication(d_in, d_out, shift, md)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(4, f"index-zero implication on {checked} pairs in {elapsed:.1f}s")


def test_criterion_05_filtration_minimum_and_f4_order():
    t0 = time.monotonic()
    for entry in load_catalog():
        shift = canonical_shift(entry.system, entry.lattice, F(1))
        W = entry.system.weyl_group()
        if entry.name == "eiv-a2":
            assert W.order == 6
        base = filtration_weight(W.identity, shift)
        assert all(filtration_weight(w, shift) > base for w in W if w != W.identity)
    roots = f4_root_vectors()
    f4 = RestrictedRootSystem(
        identity(4), roots, {r: 1 for r in roots}, (F(8), F(4), F(2), F(1)), name="f4"
    )
    assert f4.weyl_group().order == 1152
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(5, f"unique filtration minimum everywhere; |W(F4)| = 1152 in {elapsed:.1f}s")


def test_criterion_06_poincare_polynomials():
    for entry in load_catalog():
        shift = canonical_shift(entry.system, entry.lattice, F(0))
        coeffs = poincare_polynomial(shift)
        assert coeffs == coeffs[::-1]
        assert len(coeffs) - 1 == entry.system.dim_lambda()
        assert sum(coeffs) == entry.system.weyl_group().order
        if entry.name == "group-a1":
            assert coeffs == [1, 0, 1]
    report(6, "palindromic Morse census, group-a1 equals 1 + t^2")


def test_criterion_07_parity():
    for entry in load_catalog():
        shift = canonical_shift(entry.system, entry.lattice, F(4))
        par = parity_report(shift)
        if entry.name == "ai-a2":
            assert not par.all_multiplicities_even
            assert par.odd_degrees > 0 and par.even_degrees > 0
            assert par.differential_must_vanish is None
        else:
            assert par.all_multiplicities_even
            assert par.odd_degrees == 0
            assert par.differential_must_vanish is True
    report(7, "even multiplicities force even degrees; mixed parity flagged undetermined")


def test_criterion_08_ring_certificates_and_laws():
    for entry in load_catalog():
        shift = canonical_shift(entry.system, entry.lattice, F(3))
        cert = triangularity_certificate(shift)
        assert cert.complete, entry.name
        fg = finitely_generated_witness(shift)
        assert fg.reachable
    rng = random.Random(8)
    entry = get_entry("group-a2")
    W = entry.system.weyl_group()
    zero = (F(0), F(0))
    for _ in range(10_000):
        q1 = (F(rng.randint(-6, 6)), F(rng.randint(-6, 6)))
        q2 = (F(rng.randint(-6, 6)), F(rng.randint(-6, 6)))
        g = Generator(rng.choice(W.elements), (F(rng.randint(-6, 6)), F(rng.randint(-6, 6))))
        assert star_unit_sector(zero, g) == g
        assert star_unit_sector(q1, star_unit_sector(q2, g)) == star_unit_sector(
            tuple(a + b for a, b in zip(q1, q2)), g
        )
        e_prod = star_unit_sector(q1, Generator(W.identity, q2))
        assert e_prod == Generator(W.identity, tuple(a + b for a, b in zip(q1, q2)))
    report(8, "certificates complete at radius 3; product laws on 10^4 random triples")


def test_criterion_09_triangle_model():
    t0 = time.monotonic()
    sol = solve_triangle(256)
    targets = (0.0 + 1.0j, 1.0 + 0.0j, 0.0 + 0.0j)
    for img, tgt in zip(sol.corner_images(), targets):
        assert abs(img - tgt) < 1e-8
    bdry = boundary_deviation(sol, samples=500)
    assert bdry.max_deviation < 1e-6
    hull = verify_hull(sol, samples=500, tol=1e-9)
    assert hull.passed and hull.max_violation <= 1e-9
    residuals = [solve_triangle(n).cauchy_riemann_residual for n in (64, 128, 256)]
    assert residuals[1] <= 1.1 * residuals[0]
    assert residuals[2] <= 1.1 * residuals[1]
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(9, f"triangle corners/boundary/hull/residuals in {elapsed:.2f}s")


def test_criterion_10_determinism():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    cmd = [
        sys.executable, "-m", "rootquilt", "verify",
        "--pair", "group-a2", "--radius", "2", "--jobs", "8", "--format", "json",
    ]
    first = subprocess.run(cmd, capture_output=True, env=env, cwd=REPO, timeout=300)
    second = subprocess.run(cmd, capture_output=True, env=env, cwd=REPO, timeout=300)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["passed"] is True
    report(10, "two verify runs with --jobs 8 emit identical bytes")
