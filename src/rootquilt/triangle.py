"""The affine Lagrangian triple model and its conformal triangle map.

The exact half attaches three affine Lagrangians of Q^{2r} = {(eta, zeta)}
to a chord q and a chamber element w: l1 = {eta = 0}, l2 = {eta + zeta =
q + a} and l3 = {zeta = w X0}.  Their directions (0, e_j), (-e_j, e_j),
(e_j, 0) and normal rows form a frame that is built and certified once per
Gram matrix (rank r, isotropic, annihilated by the rows, pairwise
transverse).  With qa = q + a, x = w X0 and d = qa - x the intersections
are p12 = (0, qa), p23 = (d, x) and p13 = (0, x), and the plane
p13 + x (d, 0) + y (0, d) takes the boundary conditions to the lines
x = 0, x + y = 1, y = 0.  Per (q, w) only exact substitutions remain.

The numerical half solves the resulting boundary problem on the unit disk:
the map onto the triangle {0 <= x, y, x + y <= 1} with fixed prevertices
1, i, -i carrying exponents (3/4, 3/4, 1/2).  That boundary correspondence
reverses orientation (the problem is posed for minus the standard complex
structure), so the solution is conjugate-conformal: a single
Schwarz-Christoffel integral evaluated at the conjugated disk variable.
Three prevertices leave no accessory parameters.  A Gauss-Jacobi rule for
the weight (1 - x)^alpha, whose nodes are the roots of P_n^(alpha, 0) found
by Halley's method from closed-form guesses in three passes of the
three-term recurrence for P_n and P_n' (P_n'' comes from the Jacobi
equation), absorbs each prevertex's singularity with numpy alone.  A point
z at distance d > 0 from its nearest prevertex z_k takes the integral I_k
from 0 to z_k plus the integral along the segment z_k + (z - z_k) s, one
rule each; I_k is that segment integral from z_k to 0.  As d <= sqrt(2) in
the closed disk, every other prevertex lies at least as far from z_k as z
does and at least as far from z as z_k does, so the smooth part of the
integrand is analytic inside the Bernstein ellipse rho = 2 + sqrt(3) and an
m-point rule errs by O(rho^(-2m)), about 5e-19 at m = 16, however close z
is to z_k.  The integrand takes square roots alone: every exponent is a
multiple of 1/4, and inside the disk every factor has argument in
(-pi/2, pi/2), so the principal roots of the products equal the principal
powers.  Floating point is confined to this half; exact rationals are
converted at the boundary.  The half is elementwise and makes no BLAS or
LAPACK call: the one Mobius map it needs is a 2 x 2 adjugate in closed form.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

# rootquilt makes no BLAS call, so numpy's OpenBLAS (pthreads) loads without its spinning
# workers; OMP_NUM_THREADS and MKL_NUM_THREADS are left alone, as other BLAS builds are unmeasured.
_blas_threads_preset = "OPENBLAS_NUM_THREADS" in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
try:
    import numpy as np
finally:
    if not _blas_threads_preset:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import Degenerate, InvariantViolation, QuadratureNotConverged
from .indices import MonotoneData
from .lattice import GenericShift
from .linalg import Mat, Vec, add, dot, gram_pair, matrix_rank, sub, zero_vec
from .roots import RestrictedRootSystem, WeylElement

# -- exact affine geometry -------------------------------------------------


@dataclass(frozen=True)
class AffineSubspace:
    """Affine subspace given both parametrically and by normal equations."""

    point: Vec
    directions: tuple[Vec, ...]
    eq_rows: tuple[Vec, ...]
    eq_rhs: Vec

    def contains(self, p: Vec) -> bool:
        """Exact substitution into the normal equations."""
        return all(dot(row, p) == c for row, c in zip(self.eq_rows, self.eq_rhs))


def _integral(*vecs: Vec) -> tuple[tuple[int, ...], ...]:
    """The vectors times the lcm of all their denominators, as integers."""
    big = math.lcm(*(c.denominator for v in vecs for c in v))
    return tuple(tuple(c.numerator * (big // c.denominator) for c in v) for v in vecs)


def _dot(row, p):
    return sum(a * x for a, x in zip(row, p))


def _sympl(gram, u: Vec, v: Vec) -> Fraction:
    """Standard form on Q^{2r}: pairs momentum and fiber halves via the metric."""
    r = len(u) // 2
    eta_u, zeta_u = u[:r], u[r:]
    eta_v, zeta_v = v[:r], v[r:]
    return gram_pair(gram, eta_v, zeta_u) - gram_pair(gram, eta_u, zeta_v)


@dataclass
class AffineLagrangianTriple:
    """The three boundary subspaces and their pairwise intersection points."""

    system: RestrictedRootSystem
    q: Vec
    w: WeylElement
    l1: AffineSubspace
    l2: AffineSubspace
    l3: AffineSubspace
    p12: Vec
    p23: Vec
    p13: Vec
    difference: Vec  # q + a - w X0, the momentum extent of the model


@functools.lru_cache(maxsize=64)
def _frame(gram: Mat) -> tuple:
    """The (directions, normal rows) of l1, l2, l3, in integers, certified once per Gram.

    Each direction set has rank r, is isotropic and is annihilated by its
    normal rows, which have rank r; every two direction sets have rank 2r,
    so each pair of subspaces meets in a single point.
    """
    r = len(gram)
    unit = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    zero = (0,) * r
    frame = (
        (tuple(zero + e for e in unit), tuple(e + zero for e in unit)),
        (tuple(tuple(-c for c in e) + e for e in unit), tuple(e + e for e in unit)),
        (tuple(e + zero for e in unit), tuple(zero + e for e in unit)),
    )
    for dirs, rows in frame:
        if matrix_rank(dirs) != r:
            raise InvariantViolation("direction space is degenerate")
        if any(_sympl(gram, u, v) != 0 for u in dirs for v in dirs):
            raise InvariantViolation("direction space is not isotropic")
        if matrix_rank(rows) != r or any(_dot(row, u) for row in rows for u in dirs):
            raise InvariantViolation("inconsistent affine representation")
    for (dirs_a, _), (dirs_b, _) in itertools.combinations(frame, 2):
        if matrix_rank(dirs_a + dirs_b) != 2 * r:
            raise Degenerate("subspaces are not pairwise transverse")
    return frame


def build_triple(
    q: Vec, w: WeylElement, shift: GenericShift, md: MonotoneData
) -> AffineLagrangianTriple:
    """The three affine Lagrangians on the frame, and their closed-form intersections.

    Every base point and intersection point is checked by substitution into
    the normal equations of its subspaces; the frame makes each intersection
    unique.
    """
    system = shift.system
    qa = add(q, shift.a)
    x_out = w(md.x0)
    d = sub(qa, x_out)
    if not any(d):
        raise Degenerate("q + a coincides with w X0")
    (dirs1, rows1), (dirs2, rows2), (dirs3, rows3) = _frame(system.gram)
    zero = zero_vec(system.rank)
    l1 = AffineSubspace(zero + zero, dirs1, rows1, zero)
    l2 = AffineSubspace(qa + zero, dirs2, rows2, qa)
    l3 = AffineSubspace(zero + x_out, dirs3, rows3, x_out)
    if not all(sub_.contains(sub_.point) for sub_ in (l1, l2, l3)):
        raise InvariantViolation("inconsistent affine representation")
    p12, p23, p13 = zero + qa, d + x_out, zero + x_out
    for p, pair in ((p12, (l1, l2)), (p23, (l2, l3)), (p13, (l1, l3))):
        if not all(sub_.contains(p) for sub_ in pair):
            raise Degenerate("subspaces are not pairwise transverse")
    return AffineLagrangianTriple(system, q, w, l1, l2, l3, p12, p23, p13, d)


@dataclass
class PlaneModel:
    """The plane through the three intersection points, with unit coordinates.

    (x, y) embeds as (x d, w X0 + y d) where d = q + a - w X0, sending
    (0,1), (1,0), (0,0) to the pairwise intersections.
    """

    triple: AffineLagrangianTriple
    base: Vec
    u_dir: Vec
    v_dir: Vec


_LINE_TARGETS = ((1, 0, 0), (1, 1, 1), (0, 1, 0))  # x = 0, x + y = 1, y = 0


def plane_model(triple: AffineLagrangianTriple) -> PlaneModel:
    """Reduce the triple to unit plane coordinates and verify the reduction.

    Both checks substitute in integers: the embedding sends (0, 1), (1, 0),
    (0, 0) to p12, p23, p13, and each subspace's pulled-back normal rows are
    multiples of its target line, not all zero.
    """
    d, zero = triple.difference, zero_vec(triple.system.rank)
    model = PlaneModel(triple, base=triple.p13, u_dir=d + zero, v_dir=zero + d)
    subs = (triple.l1, triple.l2, triple.l3)
    base, u, v, *points_rhs = _integral(
        model.base, model.u_dir, model.v_dir, triple.p12, triple.p23, triple.p13,
        *(sub_.eq_rhs for sub_ in subs),
    )
    for (x, y), p in zip(((0, 1), (1, 0), (0, 0)), points_rhs[:3]):
        if tuple(b + x * s + y * t for b, s, t in zip(base, u, v)) != p:
            raise InvariantViolation("intersection point has wrong plane coordinates")
    for sub_, rhs, t in zip(subs, points_rhs[3:], _LINE_TARGETS):
        pulled = [(_dot(row, u), _dot(row, v), c - _dot(row, base))
                  for row, c in zip(sub_.eq_rows, rhs)]
        crosses = (p[i] * t[j] - p[j] * t[i] for p in pulled for i, j in ((0, 1), (0, 2), (1, 2)))
        if any(crosses) or not any(map(any, pulled)):
            raise InvariantViolation("pulled-back boundary line is wrong")
    return model


# -- the conformal triangle map --------------------------------------------

PREVERTICES = (1.0 + 0.0j, 1.0j, -1.0j)
EXPONENTS = (0.75, 0.75, 0.5)  # 1 - angle/pi for angles (pi/4, pi/4, pi/2)

# The required boundary correspondence runs counterclockwise on the circle
# but clockwise around the triangle, matching a problem posed for minus the
# standard complex structure.  The map is therefore conjugate-conformal: a
# plain Schwarz-Christoffel integral f with conjugated prevertex labels,
# evaluated at the conjugate of the disk variable.
_INT_EXPONENTS = (0.75, 0.5, 0.75)
_INT_TARGETS = (1.0j, 0.0 + 0.0j, 1.0 + 0.0j)


def _sc_derivative(u1: np.ndarray, ui: np.ndarray, umi: np.ndarray) -> np.ndarray:
    """u1^(-3/4) ui^(-1/2) umi^(-3/4) for the factors u_j = 1 - zeta / z_j.

    With P = u1 umi, Q = ui and s = sqrt(P), this is 1 / (s sqrt(s Q)),
    which needs square roots only.
    """
    # Inside the disk each factor has argument in (-pi/2, pi/2), so arg P and
    # arg(s Q) lie in (-pi, pi) and each principal root is the principal power.
    s = u1 * umi
    np.sqrt(s, out=s)
    sq = s * ui
    np.sqrt(sq, out=sq)
    sq *= s
    return np.divide(1.0, sq, out=sq)


# Halley from the closed-form guesses moves less than 1e-15 by its third step (its fourth
# for n < 4 or alpha = -0.99) for alpha in {-0.99, -3/4, -1/2, 0} and n from 2 to 2048.
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-15


def _jacobi_pair(n: int, alpha: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n and P_n' of the Jacobi polynomial P^(alpha, 0), for n >= 1.

    P_n comes from the three-term recurrence and P_n' from P_n and P_{n-1}
    by the differentiation identity, both from DLMF 18.9 with beta = 0.
    The coefficients are built for every m at once, and the recurrence runs
    in three preallocated arrays.
    """
    a = alpha
    m = np.arange(2, n + 1)
    c = 2.0 * m + a
    den = 2.0 * m * (m + a) * (c - 2.0)
    slopes = (c - 1.0) * c * (c - 2.0) / den
    consts = (c - 1.0) * a * a / den
    backs = 2.0 * (m + a - 1.0) * (m - 1.0) * c / den
    prev, cur, nxt = np.ones_like(x), ((a + 2.0) * x + a) / 2.0, np.empty_like(x)
    for slope, const, back in zip(slopes.tolist(), consts.tolist(), backs.tolist()):
        np.multiply(x, slope, out=nxt)
        nxt += const
        nxt *= cur
        prev *= back
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
    c = 2.0 * n + a
    deriv = (n * (a - c * x) * cur + 2.0 * n * (n + a) * prev) / (c * (1.0 - x * x))
    return cur, deriv


def _jacobi_guesses(n: int, alpha: float) -> np.ndarray:
    """The closed-form guesses x_k = cos(pi (4k - 1 + 2 alpha) / (4n + 2 alpha + 2))."""
    k = np.arange(1, n + 1)
    return np.cos(math.pi * (4 * k - 1 + 2 * alpha) / (4 * n + 2 * alpha + 2))


@functools.lru_cache(maxsize=32)
def _gauss_jacobi(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for (1 - x)^alpha on [-1, 1].

    The nodes are the roots of P_n^(alpha, 0), reached by vectorized Halley
    steps from ``_jacobi_guesses`` with P_n'' from the Jacobi equation
    (1 - x^2) P_n'' = (alpha + (alpha + 2) x) P_n' - n (n + alpha + 1) P_n.
    The pass whose steps all fall below 1e-15 also gives the weights,
    1 / ((1 - x^2) P_n'(x)^2) at the points it evaluated, scaled to the
    exact mass 2^(alpha + 1) / (alpha + 1).  Steps that do not settle within
    the step cap, or nodes that are not strictly increasing inside (-1, 1),
    raise ``QuadratureNotConverged``.  The cached arrays are read-only.
    """
    x = _jacobi_guesses(n, alpha)
    eigenvalue = n * (n + alpha + 1.0)
    moved = math.inf
    for _ in range(_NEWTON_STEPS):
        p, dp = _jacobi_pair(n, alpha, x)
        ratio = p / dp
        bend = (alpha + (alpha + 2.0) * x - eigenvalue * ratio) / (1.0 - x * x)  # P_n'' / P_n'
        step = ratio / (1.0 - 0.5 * ratio * bend)
        moved = float(np.max(np.abs(step)))
        if moved < _NEWTON_TOL:
            break
        x = x - step
    else:
        raise QuadratureNotConverged(moved, _NEWTON_TOL)
    nodes = x - step
    order = np.argsort(nodes)
    nodes, x, dp = nodes[order], x[order], dp[order]
    if not (nodes[0] > -1.0 and nodes[-1] < 1.0 and np.all(np.diff(nodes) > 0)):
        raise QuadratureNotConverged(
            moved, _NEWTON_TOL, f"Gauss-Jacobi nodes for n={n}, alpha={alpha} are not "
            "strictly increasing inside (-1, 1)"
        )
    w = 1.0 / ((1.0 - x * x) * dp * dp)
    w *= 2.0 ** (alpha + 1.0) / (alpha + 1.0) / np.sum(w)
    nodes.setflags(write=False)
    w.setflags(write=False)
    return nodes, w


# Complex values per (points x nodes) evaluation block, so the temporaries
# of a batched segment integral stay small.
_BLOCK_VALUES = 8192


def _segment_integrals(k: int, zs: np.ndarray, nodes: int) -> np.ndarray:
    """Integrals of the map derivative along the segments from prevertex k to each point.

    The segment to z is zeta = z_k + (z - z_k) s for s in [0, 1], and one
    Gauss-Jacobi rule for the weight (1 - x)^(-b_k), with s = (1 - x) / 2,
    absorbs the singularity at s = 0.  There the factor 1 - zeta / z_k is
    taken as ((z_k - z) / z_k) s, never by cancellation.  The kernel values
    carry s^(-b_k), so the weights 2^(b_k - 1) w_i s_i^(b_k) take it back
    out.  Points are evaluated one (points x nodes) block at a time.
    """
    zk, bk = PREVERTICES[k], _INT_EXPONENTS[k]
    x, w = _gauss_jacobi(nodes, -bk)
    s = (1.0 - x) / 2.0
    wts = 2.0 ** (bk - 1.0) * w * s**bk
    out = np.empty(zs.shape, dtype=complex)
    step = max(1, _BLOCK_VALUES // nodes)
    for lo in range(0, len(zs), step):
        z = zs[lo : lo + step]
        # u_j = 1 - zeta / z_j = (1 - z_k / z_j) + ((z_k - z) / z_j) s, exactly c s at j = k
        u = [np.multiply.outer((zk - z) / zj, s) for zj in PREVERTICES]
        for j, zj in enumerate(PREVERTICES):
            if j != k:
                u[j] += 1.0 - zk / zj
        vals = _sc_derivative(*u)
        vals *= wts
        out[lo : lo + step] = (z - zk) * vals.sum(axis=1)
    return out


class TriangleMapSolution:
    """A solved conformal map of the disk onto the unit right triangle."""

    def __init__(self, nodes: int, tol: float = 1e-8):
        if nodes < 16:
            raise ValueError("at least 16 quadrature nodes are required")
        self.nodes = nodes
        # I_k, the integral from 0 to z_k, is minus the segment integral from z_k to 0
        self._corner_integrals = tuple(-_segment_integrals(k, np.zeros(1), nodes)[0] for k in range(3))
        i1, i2, i3 = self._corner_integrals
        t1, t2, t3 = _INT_TARGETS
        # Normalize on the two acute corners; the right-angle corner is the
        # convergence certificate.
        self.scale = (t3 - t1) / (i3 - i1)
        self.offset = t1 - self.scale * i1
        self.corner_residual = abs(self.offset + self.scale * i2 - t2)
        self.side_ratio_residual = abs(abs(i3 - i1) / abs(i2 - i1) - math.sqrt(2.0))
        if self.corner_residual > tol:
            raise QuadratureNotConverged(self.corner_residual, tol)
        self._segment_nodes = max(16, nodes // 16)

    # -- evaluation ----------------------------------------------------

    def _path_integrals(self, zs: np.ndarray) -> np.ndarray:
        """Integrals of the derivative from the origin to each point, via its nearest prevertex.

        A point z with nearest prevertex z_k at distance d > 0 takes
        I_k + (integral from z_k to z), along the segment with one m-point
        rule, m = max(16, nodes // 16).  In the closed disk d <= sqrt(2), so
        every other prevertex sits at s_j = (z_j - z_k) / (z - z_k) with
        |s_j| >= 1 and |s_j - 1| >= 1; the smooth part of the integrand is
        then analytic inside the Bernstein ellipse rho = 2 + sqrt(3), and the
        rule errs by O(rho^(-2m)), about 5e-19 at m = 16.  Only the
        prevertices themselves (d == 0) take I_k.
        """
        gaps = np.abs(zs[:, None] - np.array(PREVERTICES)[None, :])
        nearest = gaps.argmin(axis=1)
        out = np.empty(zs.shape, dtype=complex)
        for k, corner_integral in enumerate(self._corner_integrals):
            at = nearest == k
            out[at] = corner_integral
            idx = np.flatnonzero(at & (gaps[:, k] > 0))
            out[idx] += _segment_integrals(k, zs[idx], self._segment_nodes)
        return out

    def map_points(self, zs) -> np.ndarray:
        """Images of an array of disk points, in the shape of the input.

        The disk variable enters through its conjugate: the boundary
        correspondence reverses orientation, so the solution is
        conjugate-conformal.
        """
        zs = np.asarray(zs, dtype=complex)
        flat = zs.ravel()
        if np.any(np.abs(flat) > 1.0 + 1e-12):
            raise ValueError("point outside the closed unit disk")
        images = self.offset + self.scale * self._path_integrals(np.conj(flat))
        return images.reshape(zs.shape)

    def corner_images(self) -> tuple[complex, complex, complex]:
        """Images of the public prevertices 1, i, -i."""
        i1, i2, i3 = self._corner_integrals
        return (
            self.offset + self.scale * i1,
            self.offset + self.scale * i3,
            self.offset + self.scale * i2,
        )

    # -- residuals -------------------------------------------------------

    @functools.cached_property
    def cauchy_riemann_residual(self) -> float:
        """Centered-difference residual of the structure equation on a grid
        whose spacing refines with the node count, computed on first use.

        The solved map is conjugate-conformal, so the operator that must
        vanish is d/dx - i d/dy applied to the map.
        """
        h = 0.5 / self.nodes
        centers = np.array(
            [0.0 + 0.0j] + [0.4 * np.exp(1j * k * math.pi / 4) for k in range(8)]
        )
        f = self.map_points(
            np.stack([centers + h, centers - h, centers + 1j * h, centers - 1j * h])
        )
        fx = (f[0] - f[1]) / (2 * h)
        fy = (f[2] - f[3]) / (2 * h)
        return float(np.max(np.abs(fx - 1j * fy)))


def solve_triangle(nodes: int = 256, tol: float = 1e-8) -> TriangleMapSolution:
    """Solve the triangle boundary problem at the given quadrature order."""
    return TriangleMapSolution(nodes, tol)


@dataclass
class HullReport:
    """Signed violations of the three half-plane constraints of the triangle."""

    samples: int
    tolerance: float
    max_violation: float
    worst_point: complex
    passed: bool


def interior_samples(count: int, radius: float = 0.98) -> np.ndarray:
    """Deterministic quasi-uniform disk samples (sunflower layout)."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    j = np.arange(count)
    r = radius * np.sqrt((j + 0.5) / count)
    return r * np.exp(1j * golden * j)


def _check_samples(samples: int) -> None:
    if samples < 4:
        raise ValueError("at least 4 samples are required, one on each boundary arc")


def verify_hull(sol: TriangleMapSolution, samples: int = 500, tol: float = 1e-9) -> HullReport:
    """Check that interior points map inside the triangle, within tolerance."""
    _check_samples(samples)
    zs = interior_samples(samples)
    images = sol.map_points(zs)
    x, y = images.real, images.imag
    violations = np.maximum(np.maximum(-x, -y), x + y - 1.0)
    i = int(np.argmax(violations))  # the first of the worst points
    worst = float(violations[i])
    return HullReport(samples, tol, worst, complex(zs[i]), worst <= tol)


@dataclass
class BoundaryReport:
    samples: int
    max_deviation: float
    per_arc: tuple[float, float, float]


def boundary_deviation(sol: TriangleMapSolution, samples: int = 500) -> BoundaryReport:
    """Euclidean distance from boundary-arc images to their target lines.

    Arcs (by angle): (-pi/2, 0) must land on x = 0, (0, pi/2) on
    x + y = 1, and (pi/2, 3 pi/2) on y = 0.
    """
    _check_samples(samples)
    quarter = samples // 4
    arcs = [
        (-math.pi / 2, 0.0, quarter, lambda w: np.abs(w.real)),
        (0.0, math.pi / 2, quarter, lambda w: np.abs(w.real + w.imag - 1.0) / math.sqrt(2)),
        (math.pi / 2, 3 * math.pi / 2, samples - 2 * quarter, lambda w: np.abs(w.imag)),
    ]
    thetas = [th0 + (np.arange(n) + 0.5) * (th1 - th0) / n for th0, th1, n, _ in arcs]
    images = np.split(sol.map_points(np.exp(1j * np.concatenate(thetas))), [quarter, 2 * quarter])
    per_arc = tuple(float(np.max(dist(w))) for (_, _, _, dist), w in zip(arcs, images))
    return BoundaryReport(samples, max(per_arc), per_arc)


def _mobius_through(src: tuple[complex, complex, complex], dst: tuple[complex, complex, complex]):
    """Coefficients of the Mobius map sending the source triple to the target."""

    def ratio_matrix(z1, z2, z3):
        return z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1)

    a, b, c, d = ratio_matrix(*src)
    e, f, g, h = ratio_matrix(*dst)
    det = e * h - f * g  # [[e, f], [g, h]]^-1 is its adjugate over det
    return (h * a - f * c) / det, (h * b - f * d) / det, (e * c - g * a) / det, (e * d - g * b) / det


_SYMMETRY_SAMPLES = 64  # interior points at which the reflection symmetry is compared


def symmetry_residual(sol: TriangleMapSolution) -> float:
    """Deviation from the x <-> y reflection symmetry of the triangle.

    The anti-conformal disk involution swapping the prevertices 1 and i
    while fixing -i must intertwine the map with (x, y) -> (y, x).
    """
    p, q, r, s = _mobius_through((1.0 + 0j, -1.0j, 1.0j), (1.0j, 1.0 + 0j, -1.0j))

    def sigma(z: np.ndarray) -> np.ndarray:
        zc = np.conj(z)
        return (p * zc + q) / (r * zc + s)

    zs = interior_samples(_SYMMETRY_SAMPLES, radius=0.85)
    lhs, rhs = np.split(sol.map_points(np.concatenate([sigma(zs), zs])), 2)
    return float(np.max(np.abs(lhs - 1j * np.conj(rhs))))
