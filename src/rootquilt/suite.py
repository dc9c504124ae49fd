"""Suite runner: executes every check for a catalog entry and serializes
the outcome as a deterministic report.

The per-datum sweeps read the integer tables of the ``GenericShift``, built
once per run: the bad/ugly sweep, the filtration table, the parity and
Poincare censuses, and the ring certificates.  The implication and area
sweeps are certified on the shift by linearity, with a few pairings per
chamber element, and no action is computed per generator.

The bad/ugly sweep is one serial loop over the shift's ``chambers`` and
``degrees``, point by point and in group order within a point, so the report
bytes depend on the window alone.  No check starts a worker process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json

from .catalog import CatalogEntry
from .errors import InvariantViolation, RootQuiltError
from .indices import MonotoneData, monotone_data, parity_report, poincare_polynomial
from .lattice import GenericShift, Mode, canonical_shift, validate_generic, weighted_root_sum
from .linalg import Scalar, Vec, format_rational, format_vec, scale
from .ring import finitely_generated_witness, r_module_basis_check, triangularity_certificate
from .triangle import boundary_deviation, build_triple, plane_model, solve_triangle, verify_hull

REPORT_SCHEMA_ID = "quilt-suite-report/v1"

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "entry", "operation", "parameters", "checks", "rows", "passed"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": REPORT_SCHEMA_ID},
        "entry": {"type": "string"},
        "operation": {"type": "string"},
        "parameters": {"type": "object", "additionalProperties": {"type": ["string", "integer"]}},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status", "detail"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "advisory"]},
                    "detail": {"type": "string"},
                },
            },
        },
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["section", "item", "value"],
                "additionalProperties": False,
                "properties": {
                    "section": {"type": "string"},
                    "item": {"type": "string"},
                    "value": {"type": "string"},
                },
            },
        },
        "passed": {"type": "boolean"},
    },
}


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | advisory
    detail: str = ""


@dataclass
class Report:
    entry: str
    operation: str
    parameters: dict[str, str | int]
    checks: list[CheckResult] = field(default_factory=list)
    rows: list[dict[str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def add_check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, "pass" if ok else "fail", detail))

    def add_advisory(self, name: str, detail: str) -> None:
        self.checks.append(CheckResult(name, "advisory", detail))

    def add_row(self, section: str, item: str, value) -> None:
        # str of an int or Fraction is its format_rational; a float check skips ABCMeta
        text = f"{value:.12g}" if isinstance(value, float) else str(value)
        self.rows.append({"section": section, "item": item, "value": text})

    def to_document(self) -> dict:
        return {
            "schema": REPORT_SCHEMA_ID,
            "entry": self.entry,
            "operation": self.operation,
            "parameters": self.parameters,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail} for c in self.checks
            ],
            "rows": self.rows,
            "passed": self.passed,
        }


def emit(report: Report, fmt: str = "json") -> bytes:
    """Deterministic serialization; identical inputs give identical bytes."""
    if fmt == "json":
        text = json.dumps(report.to_document(), sort_keys=True, separators=(",", ":"))
        return (text + "\n").encode("utf-8")
    if fmt == "tsv":
        lines = ["section\titem\tvalue"]
        lines += [f"{r['section']}\t{r['item']}\t{r['value']}" for r in report.rows]
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


# -- the sweeps ----------------------------------------------------------------


def __getattr__(name: str):
    # bench/spans.py rebinds suite.ProcessPoolExecutor; nothing in the package uses it
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _add_bad_ugly_sweep(report: Report, shift: GenericShift, points: list[Vec], elements) -> None:
    """Report the index of every datum (q, w, q), point by point in group order.

    The index is deg(w_in, q) - deg(w, q), read off ``shift.degrees``, where
    w_in is the chamber element of q + a in ``shift.chambers``: (q, w_in, q)
    is the one bad datum at q, of index 0, and every other w gives an ugly
    datum, whose index must be at least 1.  A failing check names the first
    ugly datum of index below 1.
    """
    first_failure = None
    for q, w_in, degrees in zip(points, shift.chambers, shift.degrees, strict=True):
        label = format_vec(q)
        top = degrees[w_in]
        for iw, (w, deg) in enumerate(zip(elements, degrees, strict=True)):
            idx = top - deg
            value = f"bad:{idx}" if iw == w_in else f"ugly:{idx}"
            datum = f"{w.name};{label}"
            if first_failure is None and iw != w_in and idx < 1:
                first_failure = f"({datum}) {value}"
            report.add_row("bad_ugly", datum, value)
    bad = len(points)
    ugly = bad * (len(elements) - 1)
    report.add_row("bad_ugly", "bad_count", bad)
    report.add_row("bad_ugly", "ugly_count", ugly)
    detail = f"{bad} bad (index 0), {ugly} ugly (index > 0)"
    if first_failure is not None:
        detail += f"; first failure {first_failure}"
    report.add_check("bad_ugly_sweep", first_failure is None, detail)


def _add_implication_check(
    report: Report, shift: GenericShift, x0_images: list[Vec], tau: Scalar
) -> None:
    """Report the implication over every ordered pair of generators, read
    off ``GenericShift.certify_implication``.

    The certificate proves every pair holds, so no action is computed.  It
    cannot fail after ``monotone_data``, which proves <v, x0> = tau * the sum
    over R+ of m_alpha 2*alpha(v), an identity that W carries to every
    image w x0; a failure raises, as ``_add_area_sweep`` does.
    """
    if not shift.certify_implication(x0_images, tau):
        raise InvariantViolation("action identity failed")
    checked = (len(shift.degrees) * len(shift.filtration)) ** 2
    report.add_row("implication", "checked", checked)
    report.add_row("implication", "holds", checked)
    report.add_check("implication_sweep", True, f"{checked} data pairs")


def _add_area_sweep(report: Report, shift: GenericShift, points: list[Vec], md: MonotoneData) -> None:
    """Report the Maslov index and the area of every capping class q, read
    off the integer column ``GenericShift.maslov``.

    ``GenericShift.certify_area`` proves area = tau * Maslov at every lattice
    point, so a failure raises as ``capping_area`` would at its first point.
    """
    if not shift.certify_area(md.x0, md.tau):
        raise InvariantViolation("area-index proportionality failed")
    for q, mu in zip(points, shift.maslov):
        report.add_row("area_maslov", format_vec(q), f"{mu}:{format_rational(md.tau * mu)}")
    report.add_check("area_maslov_sweep", True, f"{len(points)} capping classes")


# -- the suite ----------------------------------------------------------------


def build_shift(
    entry: CatalogEntry,
    epsilon: Scalar | None,
    radius: Scalar,
    mode: Mode = Mode.SMALL_IN_CHAMBER,
) -> GenericShift:
    if epsilon is None:
        return canonical_shift(entry.system, entry.lattice, mode, radius)
    a = scale(epsilon, weighted_root_sum(entry.system))
    return validate_generic(entry.system, entry.lattice, a, mode, radius)


def run_suite(
    entry: CatalogEntry,
    tau: Scalar | None = None,
    epsilon: Scalar | None = None,
    radius: Scalar = 3,
    triangle_data: tuple = (),
    quad_nodes: int = 256,
    tol: float = 1e-9,
) -> Report:
    """Run every check for one entry; a hard failure aborts naming the check."""
    stage = {"check": "setup"}
    try:
        return _run_suite(entry, tau, epsilon, radius, triangle_data, quad_nodes, tol, stage)
    except RootQuiltError as exc:
        raise RootQuiltError(f"check {stage['check']} aborted: {exc}") from exc


def _run_suite(
    entry: CatalogEntry,
    tau: Scalar | None,
    epsilon: Scalar | None,
    radius: Scalar,
    triangle_data: tuple,
    quad_nodes: int,
    tol: float,
    stage: dict,
) -> Report:
    system = entry.system
    group = system.weyl_group()

    stage["check"] = "monotone_data"
    md = monotone_data(system, tau)
    stage["check"] = "generic_shift"
    shift = build_shift(entry, epsilon, radius)
    points = shift.points

    report = Report(
        entry=entry.name,
        operation="verify",
        parameters={
            "tau": format_rational(md.tau),
            "epsilon": "canonical" if epsilon is None else format_rational(epsilon),
            "a": format_vec(shift.a),
            "radius": format_rational(radius),
            "mode": shift.mode.value,
        },
    )
    report.add_row("entry", "name", entry.name)
    report.add_row("entry", "kind", entry.kind)
    report.add_row("entry", "cartan_type", f"{entry.family}{entry.rank}")
    report.add_row("entry", "weyl_order", group.order)
    report.add_row("entry", "dim_lambda", entry.dim_lambda)

    # monotone data
    report.add_row("monotone", "tau", md.tau)
    report.add_row("monotone", "rho", format_vec(md.rho))
    report.add_row("monotone", "x0", format_vec(md.x0))
    report.add_check("monotone_data", True, "dominance and defining identity verified")

    # generic shift
    report.add_row("shift", "a", format_vec(shift.a))
    report.add_row("shift", "window_radius", radius)
    report.add_check("generic_shift", True, f"validated over {len(points)} window points")

    # counts: one chord per window point, one generator per (point, element)
    n_chords = len(points)
    n_gens = group.order * len(points)
    report.add_row("counts", "lattice_points", len(points))
    report.add_row("counts", "chords", n_chords)
    report.add_row("counts", "generators", n_gens)
    report.add_check("generator_counts", True, f"{n_gens} generators, {n_chords} chords")

    # bad/ugly sweep
    stage["check"] = "bad_ugly_sweep"
    _add_bad_ugly_sweep(report, shift, points, group.elements)

    # filtration table
    stage["check"] = "filtration_minimum"
    values = shift.filtration
    for w, fil in zip(group, values):
        report.add_row("filtration", w.name, fil)
    unique_min = all(values[0] < fil for fil in values[1:])  # the identity comes first
    report.add_check("filtration_minimum", unique_min, "unique minimum at the identity")

    # implication sweep and area = tau * maslov, both certified by linearity
    stage["check"] = "implication_sweep"
    x0_images = [w(md.x0) for w in group]
    _add_implication_check(report, shift, x0_images, md.tau)
    stage["check"] = "area_maslov_sweep"
    _add_area_sweep(report, shift, points, md)

    # parity
    stage["check"] = "parity"
    par = parity_report(shift)
    report.add_row("parity", "all_multiplicities_even", par.all_multiplicities_even)
    report.add_row("parity", "even_degrees", par.even_degrees)
    report.add_row("parity", "odd_degrees", par.odd_degrees)
    report.add_row("parity", "differential_must_vanish", par.verdict)
    parity_ok = (par.all_multiplicities_even and par.odd_degrees == 0 and par.verdict == "true") or (
        not par.all_multiplicities_even and par.verdict == "undetermined"
    )
    report.add_check("parity", parity_ok, f"verdict {par.verdict}")

    # poincare polynomial
    stage["check"] = "poincare"
    coeffs = poincare_polynomial(shift)
    report.add_row("poincare", "coefficients", ",".join(str(c) for c in coeffs))
    palindromic = coeffs == coeffs[::-1]
    poin_ok = (
        palindromic
        and coeffs[0] == 1
        and coeffs[-1] == 1
        and sum(coeffs) == group.order
        and len(coeffs) == entry.dim_lambda + 1
    )
    report.add_check("poincare", poin_ok, f"degree {len(coeffs) - 1}, sum {sum(coeffs)}")

    # unit-sector module structure
    stage["check"] = "basis_factorization"
    basis_ok = r_module_basis_check(shift)
    report.add_check("basis_factorization", basis_ok, "window factors through sector bases")

    # triangularity and finite generation
    stage["check"] = "triangularity"
    cert = triangularity_certificate(shift)
    for row in cert.rows:
        report.add_row(
            "triangularity",
            f"{row.w.name};{format_vec(row.q)}",
            f"witness={format_vec(row.witness)};s={format_vec(row.exponent)};fil={format_rational(row.filtration)}",
        )
    if cert.complete:
        report.add_check("triangularity", True, f"{len(cert.rows)} rows, all sectors witnessed")
        stage["check"] = "finitely_generated"
        fg = finitely_generated_witness(shift, cert)
        for g in fg.generators:
            report.add_row("witness", g.label(), "generator")
        report.add_check("finitely_generated", fg.reachable, f"{len(fg.generators)} generators")
    else:
        names = ",".join(w.name for w in cert.uncovered)
        report.add_advisory("triangularity", f"window too small for sectors: {names}")
        report.add_advisory("finitely_generated", "skipped: incomplete certificate")

    # optional triangle models: the conformal map does not depend on (q, w),
    # so it is solved and checked once and shared by every model
    stage["check"] = "triangle"
    if triangle_data:
        sol = solve_triangle(quad_nodes, tol=max(tol, 1e-8))
        hull = verify_hull(sol, samples=500, tol=tol)
        bdry = boundary_deviation(sol, samples=500)
    for q_coords, word in triangle_data:
        q = entry.lattice.from_coords(q_coords)
        w = group.from_word(word)
        triple = build_triple(q, w, shift, md)
        plane_model(triple)  # raises if the reduction is inconsistent
        label = f"{w.name};{format_vec(q)}"
        report.add_row("triangle", f"{label}:p12", format_vec(triple.p12))
        report.add_row("triangle", f"{label}:p23", format_vec(triple.p23))
        report.add_row("triangle", f"{label}:p13", format_vec(triple.p13))
        report.add_row("triangle", f"{label}:corner_residual", sol.corner_residual)
        report.add_row("triangle", f"{label}:boundary_deviation", bdry.max_deviation)
        report.add_row("triangle", f"{label}:hull_violation", hull.max_violation)
        report.add_check(
            f"triangle[{label}]",
            hull.passed and bdry.max_deviation < 1e-6,
            f"residual {sol.corner_residual:.3e}",
        )

    return report
