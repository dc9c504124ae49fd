"""Affine triple construction, plane reduction, and the conformal solve."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import oracles
from rootquilt import (
    Degenerate,
    QuadratureNotConverged,
    QuiltClass,
    build_triple,
    classify,
    monotone_data,
    plane_model,
    solve_triangle,
    symmetry_residual,
    validate_generic,
    verify_hull,
)
from rootquilt import triangle
from rootquilt.lattice import canonical_shift
from rootquilt.triangle import (
    EXPONENTS,
    PREVERTICES,
    _gauss_jacobi,
    _mobius_through,
    _sc_derivative,
    boundary_deviation,
    interior_samples,
)


@pytest.fixture(scope="module")
def a1_data(group_a1):
    shift = validate_generic(group_a1.system, group_a1.lattice, (F(1, 20),), F(3))
    md = monotone_data(group_a1.system, F(1, 8))
    return group_a1, shift, md


@pytest.fixture(scope="module")
def solved_256():
    return solve_triangle(256)


def test_build_triple_intersections_closed_form(a1_data):
    """The solver must reproduce the closed forms (0,q+a), (q+a-wX0,wX0), (0,wX0)."""
    entry, shift, md = a1_data
    W = entry.system.weyl_group()
    s = W.elements[1]
    q = (F(1),)
    triple = build_triple(q, s, shift, md)
    qa = (F(21, 20),)
    x_out = s(md.x0)
    assert x_out == (F(-1, 2),)
    assert triple.p12 == (F(0),) + qa
    assert triple.p23 == (F(21, 20) - F(-1, 2),) + x_out
    assert triple.p13 == (F(0),) + x_out
    assert triple.l1.contains(triple.p12) and triple.l2.contains(triple.p12)
    assert triple.l2.contains(triple.p23) and triple.l3.contains(triple.p23)
    assert triple.l1.contains(triple.p13) and triple.l3.contains(triple.p13)


def test_build_triple_rank_two(group_a2):
    shift = canonical_shift(group_a2.system, group_a2.lattice, F(2))
    md = monotone_data(group_a2.system)
    W = group_a2.system.weyl_group()
    for q in shift.window_points()[:4]:
        for w in (W.identity, W.longest):
            triple = build_triple(q, w, shift, md)
            qa = tuple(a + b for a, b in zip(q, shift.a))
            assert triple.p12 == (F(0), F(0)) + qa
            assert triple.p13 == (F(0), F(0)) + w(md.x0)


def test_build_triple_degenerate(a1_data):
    entry, _, _ = a1_data
    # pick tau so that X0 equals q + a exactly: 4 tau = 21/20
    shift = validate_generic(entry.system, entry.lattice, (F(1, 20),), F(3))
    md = monotone_data(entry.system, F(21, 80))
    with pytest.raises(Degenerate):
        build_triple((F(1),), entry.system.weyl_group().identity, shift, md)


def test_plane_model_vertices(a1_data):
    entry, shift, md = a1_data
    s = entry.system.weyl_group().elements[1]
    triple = build_triple((F(1),), s, shift, md)
    model = plane_model(triple)
    assert oracles.coordinates(model, triple.p12) == (F(0), F(1))
    assert oracles.coordinates(model, triple.p23) == (F(1), F(0))
    assert oracles.coordinates(model, triple.p13) == (F(0), F(0))
    assert oracles.embed(model, F(0), F(1)) == triple.p12
    assert oracles.embed(model, F(1), F(0)) == triple.p23


def test_plane_points_affinely_independent(a1_data):
    entry, shift, md = a1_data
    s = entry.system.weyl_group().elements[1]
    triple = build_triple((F(1),), s, shift, md)
    u = tuple(a - b for a, b in zip(triple.p12, triple.p13))
    v = tuple(a - b for a, b in zip(triple.p23, triple.p13))
    from rootquilt.linalg import matrix_rank

    assert matrix_rank([u, v]) == 2


def test_bad_iff_momentum_segment_in_chamber(group_a2):
    shift = canonical_shift(group_a2.system, group_a2.lattice, F(2))
    md = monotone_data(group_a2.system)
    sys_ = group_a2.system
    for q in shift.window_points():
        qa = tuple(a + b for a, b in zip(q, shift.a))
        for w in sys_.weyl_group():
            in_chamber = oracles.segment_in_closed_chamber(sys_, w, qa, w(md.x0))
            assert in_chamber == (classify(q, w, shift) is QuiltClass.BAD)


def test_exponent_sum_is_two():
    # interior angles pi/4 + pi/4 + pi/2 close up to a Euclidean triangle
    assert sum(EXPONENTS) == 2.0


def test_solver_rejects_tiny_node_counts():
    with pytest.raises(ValueError):
        solve_triangle(8)


def test_corner_images(solved_256):
    targets = (0.0 + 1.0j, 1.0 + 0.0j, 0.0 + 0.0j)
    for img, tgt in zip(solved_256.corner_images(), targets):
        assert abs(img - tgt) < 1e-8


def test_prevertex_evaluation_matches_corners(solved_256):
    for z, tgt in zip(PREVERTICES, ((0 + 1j), (1 + 0j), 0j)):
        assert abs(oracles.map_point(solved_256, z) - tgt) < 1e-8


def test_boundary_deviation(solved_256):
    report = boundary_deviation(solved_256, samples=500)
    assert report.max_deviation < 1e-6


def test_hull_confinement(solved_256):
    report = verify_hull(solved_256, samples=500, tol=1e-9)
    assert report.passed
    assert report.max_violation <= 1e-9
    center = oracles.map_point(solved_256, 0j)
    assert center.real > 0 and center.imag > 0 and center.real + center.imag < 1


def test_cr_residual_decreases_with_nodes():
    residuals = [solve_triangle(n).cauchy_riemann_residual for n in (64, 128, 256)]
    assert residuals[1] <= 1.1 * residuals[0]
    assert residuals[2] <= 1.1 * residuals[1]


def test_residuals_at_1024_nodes_stay_at_rounding_level():
    sol = solve_triangle(1024)
    assert boundary_deviation(sol, 500).max_deviation < 1e-13
    assert symmetry_residual(sol) < 1e-13


def test_cr_residual_at_256_nodes_is_pinned(solved_256):
    # the centered-difference truncation error, not quadrature noise
    assert abs(solved_256.cauchy_riemann_residual - 9.689e-7) <= 0.01 * 9.689e-7


def test_symmetry_under_exponent_swap(solved_256):
    assert symmetry_residual(solved_256) < 1e-8


def test_closed_form_mobius_matches_the_inverse():
    rng = np.random.default_rng(7)
    triples = [((1.0 + 0j, -1.0j, 1.0j), (1.0j, 1.0 + 0j, -1.0j))]
    for _ in range(200):
        z = rng.normal(size=6) + 1j * rng.normal(size=6)
        triples.append((tuple(z[:3]), tuple(z[3:])))
    for src, dst in triples:
        got = np.array(_mobius_through(src, dst))
        want = np.array(oracles.mobius_through(src, dst))
        # a Mobius map is its coefficients up to scale; both sides share the scale
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (src, dst)


def test_quadrature_not_converged_carries_residual():
    with pytest.raises(QuadratureNotConverged) as err:
        solve_triangle(16, tol=1e-30)
    assert err.value.residual > 1e-30


def test_interior_samples_stay_inside():
    zs = interior_samples(500)
    assert all(abs(z) < 1 for z in zs)
    assert len(set(zs.round(12))) == 500


def test_side_ratio_residual(solved_256):
    assert solved_256.side_ratio_residual < 1e-10


# -- the square-root kernel against the log/exp product it replaced ---------


_INT_PREVERTICES = (1.0 + 0.0j, 1.0j, -1.0j)
_INT_EXPONENTS = (0.75, 0.5, 0.75)


def _log_exp_sc_derivative(zeta: np.ndarray) -> np.ndarray:
    """The map derivative as a product of principal powers, one complex log
    and exp per factor: the formula the square-root kernel replaced."""
    out = np.ones_like(zeta, dtype=complex)
    for zk, bk in zip(_INT_PREVERTICES, _INT_EXPONENTS):
        out = out * np.exp(-bk * np.log(1.0 - zeta / zk))
    return out


def _kernel_points() -> np.ndarray:
    rng = np.random.default_rng(20260)
    count = 100_000
    radius = np.sqrt(rng.uniform(0.0, 1.0, count))
    disk = radius * np.exp(1j * rng.uniform(-math.pi, math.pi, count))
    disk = disk[np.abs(disk) < 1.0]
    angles = rng.uniform(-math.pi, math.pi, 4096)
    rim = (1.0 - 1e-12) * np.exp(1j * angles)
    near = []
    for zk in PREVERTICES:
        offsets = 1e-12 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))
        ring = zk + offsets
        near.append(ring[np.abs(ring) < 1.0])
        near.append(zk * (1.0 - np.array([1e-12, 3e-13, 1e-13])))
    return np.concatenate([disk, rim, *near])


def test_sc_derivative_matches_log_exp_product():
    zs = _kernel_points()
    assert len(zs) >= 100_000 and np.all(np.abs(zs) < 1.0)
    expected = _log_exp_sc_derivative(zs)
    got = _sc_derivative(zs)
    assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-14


# -- batched evaluation against the scalar path it replaced ----------------


def _segment_breaks(dist: float) -> np.ndarray:
    """Panel breaks 1 - 2^-j, j = 1..L, of [0, 1] toward t = 1, with
    L = max(1, ceil(log2(2 / dist))) for the distance between the path
    endpoint and the nearest prevertex, as in ``_path_integrals``."""
    levels = max(1, math.ceil(math.log2(2.0 / dist)))
    pts = [0.0] + [1.0 - 0.5**j for j in range(1, levels + 1)] + [1.0]
    return np.array(pts)


def _scalar_path_integral(
    self, z: complex, breaks_of=_segment_breaks, kernel=_log_exp_sc_derivative
) -> complex:
    """Integral of the derivative along the straight path from 0 to z."""
    if z == 0:
        return 0.0 + 0.0j
    dist = min(abs(z - zk) for zk in PREVERTICES)
    for k, zk in enumerate(PREVERTICES):
        if abs(z - zk) < 1e-14:
            return self._corner_integrals[k]
    breaks = breaks_of(dist)
    t0 = breaks[:-1]
    t1 = breaks[1:]
    half = (t1 - t0) / 2.0
    mid = (t1 + t0) / 2.0
    t = (mid[:, None] + half[:, None] * self._gl_nodes[None, :]).ravel()
    vals = kernel(z * t).reshape(len(t0), -1)
    per_panel = half * np.sum(vals * self._gl_weights[None, :], axis=1)
    return z * np.sum(per_panel)


def _scalar_map_point(sol, z: complex) -> complex:
    return sol.offset + sol.scale * _scalar_path_integral(sol, np.conj(z))


def _differential_points() -> np.ndarray:
    near = []
    for zk in PREVERTICES:
        near += [zk * (1 - 1e-9), zk * np.exp(1e-9j), zk * np.exp(-3e-10j), zk * (1 - 1e-15)]
    boundary = np.exp(1j * np.linspace(-math.pi, math.pi, 97))
    return np.concatenate([interior_samples(200), boundary, [0j], PREVERTICES, near])


@pytest.mark.parametrize("nodes", [64, 256])
def test_map_points_matches_scalar_path(nodes):
    sol = solve_triangle(nodes)
    zs = _differential_points()
    batched = sol.map_points(zs)
    scalar = np.array([_scalar_map_point(sol, z) for z in zs])
    assert batched.shape == zs.shape
    assert np.max(np.abs(batched - scalar)) <= 1e-14
    assert oracles.map_point(sol, zs[0]) == batched[0]


@pytest.mark.parametrize("nodes", [64, 256])
def test_graded_panels_match_the_dyadic_panels(nodes):
    """The grading by the Gauss-Legendre error bound against the dyadic
    grading it replaced (``oracles.segment_breaks``), both with the
    square-root kernel, on the differential points and the hull and
    boundary samples.

    Points within 1e-6 of a prevertex are left out: the prevertices, which
    take their exact values, and the differential points within 1e-9 of
    one.  There the two gradings differ by up to 2.5e-12, and against
    40-digit mpmath values both are about 1e-11 off at d = 3e-10 (old
    1.10e-11, new 1.30e-11), because the rounding of z t near t = 1
    dominates either quadrature error.
    """
    sol = solve_triangle(nodes)
    rim = np.exp(1j * (np.arange(500) + 0.5) * 2.0 * math.pi / 500)
    zs = np.concatenate([_differential_points(), interior_samples(500), rim])
    dist = np.min(np.abs(zs[:, None] - np.array(PREVERTICES)[None, :]), axis=1)
    assert np.all((dist >= 1e-6) | (dist <= 1e-9))
    zs = zs[dist >= 1e-6]
    dyadic = np.array([
        sol.offset + sol.scale * _scalar_path_integral(
            sol, np.conj(z), oracles.segment_breaks, _sc_derivative)
        for z in zs
    ])
    assert np.max(np.abs(sol.map_points(zs) - dyadic)) <= 2e-15


def test_hull_and_boundary_evaluation_counts(solved_256, monkeypatch):
    sizes = []
    kernel = triangle._sc_derivative

    def counting(zeta):
        sizes.append(zeta.size)
        return kernel(zeta)

    monkeypatch.setattr(triangle, "_sc_derivative", counting)
    verify_hull(solved_256, samples=500)
    hull = sum(sizes)
    sizes.clear()
    boundary_deviation(solved_256, samples=500)
    assert (hull, sum(sizes)) == (26_672, 30_240)


def test_map_points_keeps_input_shape(solved_256):
    zs = interior_samples(12).reshape(3, 4)
    assert np.array_equal(solved_256.map_points(zs), solved_256.map_points(zs.ravel()).reshape(3, 4))


def test_map_points_rejects_points_outside_the_disk(solved_256):
    with pytest.raises(ValueError, match="outside the closed unit disk"):
        solved_256.map_points([0.5j, 1.0 + 1e-9])
    with pytest.raises(ValueError, match="outside the closed unit disk"):
        oracles.map_point(solved_256, -1.1)


@pytest.mark.parametrize("samples", [0, 1, 3])
def test_too_few_samples_certify_nothing(solved_256, samples):
    with pytest.raises(ValueError, match="at least 4 samples"):
        verify_hull(solved_256, samples=samples)
    with pytest.raises(ValueError, match="at least 4 samples"):
        boundary_deviation(solved_256, samples=samples)


def test_four_samples_cover_every_arc(solved_256):
    report = boundary_deviation(solved_256, samples=4)
    assert len(report.per_arc) == 3 and report.max_deviation < 1e-6
    assert verify_hull(solved_256, samples=4).passed


def test_hull_reports_the_first_of_equally_worst_points():
    class FlatMap:
        """Every point lands on the same interior point."""

        def map_points(self, zs):
            return np.full(len(zs), 0.25 + 0.25j)

    report = verify_hull(FlatMap(), samples=10)
    assert report.max_violation == -0.25
    assert report.worst_point == interior_samples(10)[0]


# -- the Gauss-Jacobi rule ----------------------------------------------------

REPO = Path(__file__).resolve().parent.parent
RULE_NODES = (16, 64, 256, 1024)
RULE_ALPHAS = (-0.75, -0.5, -0.99, 0.0)


def _jacobi_reference(j: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """P_j^(alpha, 0) by its explicit sum (DLMF 18.5.8), independent of the recurrence."""
    out = np.zeros_like(x)
    for s in range(j + 1):
        upper = math.gamma(j + alpha + 1) / (math.gamma(j - s + 1) * math.gamma(alpha + s + 1))
        out += upper * math.comb(j, s) * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (j - s)
    return out


@pytest.mark.parametrize("alpha", RULE_ALPHAS)
@pytest.mark.parametrize("nodes", RULE_NODES)
def test_gauss_jacobi_rule_is_orthonormalizing(nodes, alpha):
    x, w = _gauss_jacobi(nodes, alpha)
    assert x.shape == w.shape == (nodes,)
    assert x[0] > -1 and x[-1] < 1 and np.all(np.diff(x) > 0)
    assert np.all(w > 0)
    mass = 2 ** (alpha + 1) / (alpha + 1)
    assert abs(np.sum(w) - mass) <= 1e-14 * mass
    # A node is held to within rounding; next to x = 1, where 1 - x ~ 1/n^2,
    # the weight formula amplifies that by about n^2.
    tol = nodes * nodes * np.finfo(float).eps * mass
    polys = [_jacobi_reference(j, alpha, x) for j in range(7)]
    for j, pj in enumerate(polys):
        for k, pk in enumerate(polys):
            # the norm of P_j^(alpha, 0) is 2^(alpha + 1) / (2j + alpha + 1)
            exact = 2 ** (alpha + 1) / (2 * j + alpha + 1) if j == k else 0.0
            assert abs(np.sum(w * pj * pk) - exact) <= tol, (j, k)


@pytest.mark.parametrize("alpha", RULE_ALPHAS)
@pytest.mark.parametrize("nodes", RULE_NODES)
def test_gauss_jacobi_rule_matches_scipy(nodes, alpha):
    special = pytest.importorskip("scipy.special")
    x, w = _gauss_jacobi(nodes, alpha)
    xs, ws = special.roots_jacobi(nodes, alpha, 0.0)
    assert np.max(np.abs(x - xs)) <= 1e-15
    # scipy's own weights drift by up to 3e-8 relative at 1024 nodes
    assert np.max(np.abs(w - ws) / ws) <= 1e-6


@pytest.mark.parametrize("alpha", RULE_ALPHAS)
@pytest.mark.parametrize("nodes", (2, 16, 256, 1024))
def test_in_place_recurrence_gives_the_same_rule(nodes, alpha, monkeypatch):
    x, w = _gauss_jacobi.__wrapped__(nodes, alpha)
    monkeypatch.setattr(triangle, "_jacobi_pair", oracles.jacobi_pair)
    x_old, w_old = _gauss_jacobi.__wrapped__(nodes, alpha)
    assert np.array_equal(x, x_old) and np.array_equal(w, w_old)


@pytest.mark.parametrize("alpha", RULE_ALPHAS)
@pytest.mark.parametrize("nodes", RULE_NODES)
def test_a_rule_costs_three_recurrence_passes(nodes, alpha, monkeypatch):
    # two Halley steps, and a third pass that settles below 1e-15 and gives the weights
    calls = []
    pair = triangle._jacobi_pair

    def counting(n, a, x):
        calls.append(n)
        return pair(n, a, x)

    monkeypatch.setattr(triangle, "_jacobi_pair", counting)
    _gauss_jacobi.__wrapped__(nodes, alpha)
    assert len(calls) in ((3, 4) if alpha == -0.99 else (3,))


@pytest.mark.parametrize("alpha", RULE_ALPHAS)
@pytest.mark.parametrize("nodes", RULE_NODES + (2048,))
def test_halley_rule_matches_the_newton_rule(nodes, alpha):
    x, w = _gauss_jacobi.__wrapped__(nodes, alpha)
    x_old, w_old = oracles.newton_gauss_jacobi(nodes, alpha)
    assert np.max(np.abs(x - x_old)) <= 4.4e-16
    # At alpha = -0.99 both builders lose digits in the weight next to x = 1,
    # and at 2048 nodes both sit about 2e-10 from 50-digit weights there.
    if alpha != -0.99 and nodes <= 1024:
        assert np.max(np.abs(w - w_old) / w_old) <= 1e-12


def test_gauss_jacobi_rule_is_cached_read_only():
    x, w = _gauss_jacobi(64, -0.75)
    assert _gauss_jacobi(64, -0.75)[0] is x
    assert not x.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("nodes, weight_tol", [(12, 1e-15), (16, 1e-15), (64, 3e-15)])
def test_panel_rule_is_gauss_legendre(nodes, weight_tol):
    # At 64 nodes leggauss's own weights are 2.3e-15 from the exact ones
    # (40-digit Newton), this rule's 1.3e-16.
    x, w = _gauss_jacobi(nodes, 0.0)
    xl, wl = np.polynomial.legendre.leggauss(nodes)
    assert np.max(np.abs(x - xl)) <= 1e-15
    assert np.max(np.abs(w - wl)) <= weight_tol


def test_solves_at_one_node_count_share_three_rules():
    # the two acute corners share alpha = -3/4, the right angle has -1/2,
    # and the panels use alpha = 0 at max(12, nodes // 16) nodes
    _gauss_jacobi.cache_clear()
    for _ in range(3):
        solve_triangle(128)
    assert _gauss_jacobi.cache_info().misses == 3


def test_newton_without_steps_is_not_converged(monkeypatch):
    _gauss_jacobi.cache_clear()
    monkeypatch.setattr(triangle, "_NEWTON_STEPS", 0)
    with pytest.raises(QuadratureNotConverged):
        _gauss_jacobi(16, -0.75)
    with pytest.raises(QuadratureNotConverged):
        solve_triangle(16)


def test_collapsed_nodes_are_not_a_rule(monkeypatch):
    # guesses collapsed onto one point, where every step is 0, converge to one repeated node
    _gauss_jacobi.cache_clear()
    monkeypatch.setattr(triangle, "_jacobi_guesses", lambda n, alpha: np.zeros(n))
    monkeypatch.setattr(
        triangle, "_jacobi_pair", lambda n, alpha, x: (np.zeros_like(x), np.ones_like(x))
    )
    with pytest.raises(QuadratureNotConverged, match="not strictly increasing"):
        _gauss_jacobi(16, -0.75)


def test_corner_residual_stays_at_rounding_level_at_1024_nodes():
    assert solve_triangle(1024).corner_residual < 1e-13


def test_commands_run_with_scipy_unimportable():
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from rootquilt.cli import main\n"
        "codes = [\n"
        "    main(['verify', '--pair', 'group-a1', '--radius', '1', '--triangle', '0:e']),\n"
        "    main(['triangle', '--pair', 'group-a1', '--q', '1', '--w', '1',\n"
        "          '--quad-nodes', '64', '--samples', '40']),\n"
        "]\n"
        "sys.exit(0 if codes == [0, 0] else 1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, cwd=REPO, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_triangle_command_does_not_import_numpy_polynomial():
    script = (
        "import sys\n"
        "from rootquilt.cli import main\n"
        "code = main(['verify', '--pair', 'group-a1', '--triangle', '0:e'])\n"
        "print(code, 'numpy.polynomial' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, cwd=REPO, timeout=300
    )
    assert proc.stderr.decode().split()[-2:] == ["0", "False"], proc.stderr.decode()


def test_no_source_file_names_scipy():
    package = REPO / "src" / "rootquilt"
    files = [p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    assert files
    assert [str(p) for p in files if b"scipy" in p.read_bytes()] == []


def test_no_source_file_calls_numpy_linalg():
    package = REPO / "src" / "rootquilt"
    files = [p for p in package.rglob("*.py") if "__pycache__" not in p.parts]
    assert files
    calls = [str(p) for p in files if re.search(rb"\b(np|numpy)\.linalg\b", p.read_bytes())]
    assert calls == []


_THREAD_SCRIPT = (
    "import json, os, sys\n"
    "before = dict(os.environ)\n"
    "import rootquilt\n"
    "from rootquilt.cli import main\n"
    "codes = [\n"
    "    main(['verify', '--pair', 'group-a1', '--radius', '1', '--triangle', '0:e']),\n"
    "    main(['triangle', '--pair', 'group-a1', '--q', '1', '--w', '1',\n"
    "          '--quad-nodes', '64', '--samples', '40']),\n"
    "]\n"
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
    "print(json.dumps([codes, tasks, dict(os.environ) == before,\n"
    "                  os.environ.get('OPENBLAS_NUM_THREADS')]), file=sys.stderr)\n"
)


def _run_thread_script(**preset: str) -> list:
    # OpenBLAS falls back to these two when OPENBLAS_NUM_THREADS is unset
    drop = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(preset, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_SCRIPT], capture_output=True, env=env, cwd=REPO, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stderr.decode().splitlines()[-1])


def test_commands_run_on_one_thread_and_leave_the_environment_alone():
    codes, tasks, unchanged, blas = _run_thread_script()
    assert (codes, unchanged, blas) == ([0, 0], True, None)
    if tasks is None:
        pytest.skip("no /proc/self/task to count threads")
    assert tasks == 1


def test_a_preset_openblas_thread_count_is_kept():
    codes, _tasks, unchanged, blas = _run_thread_script(OPENBLAS_NUM_THREADS="2")
    assert (codes, unchanged, blas) == ([0, 0], True, "2")
