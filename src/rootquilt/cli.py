"""Command line interface.

Subcommands: info, verify, index, filtration, product, certify, triangle.
All exact quantities are printed as "p/q" strings; only the triangle
residuals are decimal.  Exit status is 0 exactly when every non-advisory
check passed, 1 when a check failed, and 2 for malformed arguments or
invalid data (reported as ``error: ...`` on stderr).
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .catalog import get_entry, load_catalog
from .errors import RootQuiltError
from .indices import QuiltDatum, classify, monotone_data, quilt_index
from .lattice import Mode
from .linalg import format_rational, format_vec, parse_rational
from .ring import Generator, star_unit_sector, triangularity_certificate
from .suite import Report, build_shift, emit, run_suite
from .triangle import (
    boundary_deviation,
    build_triple,
    plane_model,
    solve_triangle,
    symmetry_residual,
    verify_hull,
)


def _parse_word(text: str) -> tuple[int, ...]:
    """A word of 1-based letters, as 0-based simple reflection indices."""
    text = text.strip()
    if text in ("e", ""):
        return ()
    try:
        return tuple(int(tok) - 1 for tok in text.split(","))
    except ValueError:
        raise RootQuiltError(f"invalid word {text!r}; use e or letters such as 1,2") from None


def _parse_coords(entry, text: str) -> tuple[int, ...]:
    """Lattice-basis coordinates of a point of ``entry``'s lattice."""
    try:
        coords = tuple(int(tok) for tok in text.strip().split(","))
    except ValueError:
        raise RootQuiltError(f"invalid coordinates {text!r}; use integers such as 1,0") from None
    if len(coords) != entry.rank:
        raise RootQuiltError(f"coordinates {text!r} do not fit {entry.name}, of rank {entry.rank}")
    return coords


def _int_at_least(minimum: int, reason: str):
    """An argparse type: an int of at least ``minimum``, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is too few; at least {minimum} {reason}")
        return value

    return parse


def _tolerance(text: str) -> float:
    """An argparse type: a finite float of at least 0, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"{text} is not a tolerance; use a finite number >= 0")
    return value


_sample_count = _int_at_least(4, "are needed, one on each boundary arc")
_node_count = _int_at_least(16, "are needed for the corner quadrature")
_job_count = _int_at_least(1, "is needed")


def _common_options() -> argparse.ArgumentParser:
    """The options shared by every command that builds a shift, as a parent parser."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--pair", required=True, help="catalog entry name")
    p.add_argument("--catalog", default=None, help="path to a catalog file")
    p.add_argument("--tau", default=None, help="monotonicity constant (rational)")
    p.add_argument("--epsilon", default=None, help="shift scale (rational); default is canonical")
    p.add_argument("--radius", default="3", help="window radius (rational)")
    p.add_argument("--format", default="json", choices=["json", "tsv"])
    p.add_argument("--jobs", type=_job_count, default=1, help="accepted; verify runs serially")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--quad-nodes", type=_node_count, default=256)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rootquilt")
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_options()]

    p_info = sub.add_parser("info", help="describe catalog entries")
    p_info.add_argument("--pair", default=None)
    p_info.add_argument("--catalog", default=None)

    p_verify = sub.add_parser("verify", parents=common, help="run the full check suite")
    p_verify.add_argument(
        "--triangle",
        action="append",
        default=[],
        metavar="Q:W",
        help="also solve the triangle model for lattice coords Q and word W, e.g. 1:1",
    )

    p_index = sub.add_parser("index", parents=common, help="quilt index of one datum")
    p_index.add_argument("--q-in", required=True, help="input chord, lattice coords")
    p_index.add_argument("--w-out", required=True, help="output word, e.g. e or 1,2")
    p_index.add_argument("--q-out", required=True, help="output chord, lattice coords")

    sub.add_parser("filtration", parents=common, help="filtration weights and leading terms")

    p_prod = sub.add_parser("product", parents=common, help="unit-sector product")
    p_prod.add_argument("--q1", required=True, help="unit-sector exponent, lattice coords")
    p_prod.add_argument("--w", required=True, help="sector word of the right factor")
    p_prod.add_argument("--q2", required=True, help="chord of the right factor")

    sub.add_parser("certify", parents=common, help="triangularity and finite generation")

    p_tri = sub.add_parser("triangle", parents=common, help="solve the conformal triangle model")
    p_tri.add_argument("--q", required=True, help="chord, lattice coords")
    p_tri.add_argument("--w", required=True, help="chamber word")
    p_tri.add_argument("--samples", type=_sample_count, default=500)

    return parser


def _write(report: Report, fmt: str) -> None:
    sys.stdout.buffer.write(emit(report, fmt))
    sys.stdout.buffer.flush()


def _rational(option: str, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError:
        raise RootQuiltError(f"invalid {option} {text!r}; use a rational such as 1/8") from None


def _common_params(args) -> dict:
    params = {
        "tau": None if args.tau is None else _rational("--tau", args.tau),
        "epsilon": None if args.epsilon is None else _rational("--epsilon", args.epsilon),
        "radius": _rational("--radius", args.radius),
    }
    if params["tau"] is not None and params["tau"] <= 0:
        raise RootQuiltError(f"--tau must be positive, not {args.tau}")
    if params["radius"] < 0:
        raise RootQuiltError(f"--radius must be non-negative, not {args.radius}")
    return params


def _entry(args):
    try:
        return get_entry(args.pair, args.catalog)
    except KeyError as exc:
        raise RootQuiltError(exc.args[0]) from None


def cmd_info(args) -> int:
    entries = load_catalog(args.catalog) if args.pair is None else [_entry(args)]
    for e in entries:
        group = e.system.weyl_group()
        mults = sorted(set(e.system.mult.values()))
        print(f"{e.name}: kind={e.kind} type={e.family}{e.rank} |W|={group.order} "
              f"dim={e.dim_lambda} mult={mults}")
        if e.provenance:
            print(f"  {e.provenance}")
    return 0


def cmd_verify(args) -> int:
    entry = _entry(args)
    params = _common_params(args)
    triangle_data = []
    for spec_text in args.triangle:
        q_text, colon, w_text = spec_text.partition(":")
        if not colon:
            raise RootQuiltError(f"invalid --triangle {spec_text!r}; use Q:W, such as 1:1")
        triangle_data.append((_parse_coords(entry, q_text), _parse_word(w_text)))
    report = run_suite(
        entry,
        tau=params["tau"],
        epsilon=params["epsilon"],
        radius=params["radius"],
        triangle_data=tuple(triangle_data),
        quad_nodes=args.quad_nodes,
        tol=args.tol,
    )
    _write(report, args.format)
    return 0 if report.passed else 1


def _entry_and_shift(args):
    entry = _entry(args)
    params = _common_params(args)
    shift = build_shift(entry, params["epsilon"], params["radius"], Mode.SMALL_IN_CHAMBER)
    return entry, params, shift


def cmd_index(args) -> int:
    entry, params, shift = _entry_and_shift(args)
    group = entry.system.weyl_group()
    q_in = entry.lattice.from_coords(_parse_coords(entry, args.q_in))
    q_out = entry.lattice.from_coords(_parse_coords(entry, args.q_out))
    w_out = group.from_word(_parse_word(args.w_out))
    idx = quilt_index(QuiltDatum(shift, q_in, w_out, q_out))
    report = Report(entry.name, "index", _report_params(params, shift))
    report.add_row("index", "q_in", args.q_in)
    report.add_row("index", "w_out", w_out.name)
    report.add_row("index", "q_out", args.q_out)
    report.add_row("index", "value", idx)
    if q_in == q_out:
        report.add_row("index", "class", classify(q_in, w_out, shift).value)
    report.add_check("index", True, f"index {idx}")
    _write(report, args.format)
    return 0


def cmd_filtration(args) -> int:
    entry, params, shift = _entry_and_shift(args)
    group = entry.system.weyl_group()
    report = Report(entry.name, "filtration", _report_params(params, shift))
    for w, fil in zip(group, shift.filtration):
        report.add_row("filtration", w.name, fil)
    for q, iw in zip(shift.points, shift.chambers):
        report.add_row("leading", format_vec(q), group.elements[iw].name)
    report.add_check("filtration", True, f"{group.order} weights")
    _write(report, args.format)
    return 0


def cmd_product(args) -> int:
    entry, params, shift = _entry_and_shift(args)
    group = entry.system.weyl_group()
    q1 = entry.lattice.from_coords(_parse_coords(entry, args.q1))
    q2 = entry.lattice.from_coords(_parse_coords(entry, args.q2))
    w = group.from_word(_parse_word(args.w))
    result = star_unit_sector(q1, Generator(w, q2))
    report = Report(entry.name, "product", _report_params(params, shift))
    report.add_row("product", "left", f"y[e;{args.q1}]")
    report.add_row("product", "right", f"y[{w.name};{args.q2}]")
    report.add_row("product", "result", result.label())
    report.add_row("product", "sign", "unverified outside Z2")
    report.add_check("product", True, result.label())
    _write(report, args.format)
    return 0


def cmd_certify(args) -> int:
    entry, params, shift = _entry_and_shift(args)
    cert = triangularity_certificate(shift)
    report = Report(entry.name, "certify", _report_params(params, shift))
    for row in cert.rows:
        report.add_row(
            "triangularity",
            f"{row.w.name};{format_vec(row.q)}",
            f"witness={format_vec(row.witness)}",
        )
    if cert.complete:
        report.add_check("triangularity", True, f"{len(cert.rows)} rows")
    else:
        report.add_advisory(
            "triangularity",
            "window too small for sectors: " + ",".join(w.name for w in cert.uncovered),
        )
    _write(report, args.format)
    return 0 if report.passed else 1


def cmd_triangle(args) -> int:
    entry, params, shift = _entry_and_shift(args)
    group = entry.system.weyl_group()
    md = monotone_data(entry.system, params["tau"])
    q = entry.lattice.from_coords(_parse_coords(entry, args.q))
    w = group.from_word(_parse_word(args.w))
    triple = build_triple(q, w, shift, md)
    plane_model(triple)
    sol = solve_triangle(args.quad_nodes, tol=max(args.tol, 1e-8))
    hull = verify_hull(sol, samples=args.samples, tol=args.tol)
    bdry = boundary_deviation(sol, samples=args.samples)
    sym = symmetry_residual(sol)
    report = Report(entry.name, "triangle", _report_params(params, shift))
    report.add_row("triangle", "q", args.q)
    report.add_row("triangle", "w", w.name)
    report.add_row("triangle", "nodes", args.quad_nodes)
    report.add_row("triangle", "corner_residual", sol.corner_residual)
    report.add_row("triangle", "side_ratio_residual", sol.side_ratio_residual)
    report.add_row("triangle", "cauchy_riemann_residual", sol.cauchy_riemann_residual)
    report.add_row("triangle", "boundary_deviation", bdry.max_deviation)
    report.add_row("triangle", "hull_violation", hull.max_violation)
    report.add_row("triangle", "symmetry_residual", sym)
    report.add_check("triangle", hull.passed, f"hull violation {hull.max_violation:.3e}")
    _write(report, args.format)
    return 0 if report.passed else 1


def _report_params(params: dict, shift) -> dict:
    out = {}
    for key, value in params.items():
        if value is None:
            out[key] = "default"
        else:
            out[key] = format_rational(value)
    out["mode"] = shift.mode.value
    return out


_COMMANDS = {
    "info": cmd_info,
    "verify": cmd_verify,
    "index": cmd_index,
    "filtration": cmd_filtration,
    "product": cmd_product,
    "certify": cmd_certify,
    "triangle": cmd_triangle,
}


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join a negative value to the long option before it, ``--epsilon -1/3``
    -> ``--epsilon=-1/3``, since argparse reads -1/3 as a flag.  argparse then
    resolves an abbreviated option (``--rad=-1/2``) and checks the value; the
    end-of-options marker ``--`` is left alone."""
    out: list[str] = []
    for tok in argv:
        if (
            out
            and out[-1].startswith("--")
            and out[-1] != "--"
            and "=" not in out[-1]
            and tok[:1] == "-"
            and tok[1:2].isdigit()
        ):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    try:
        return _COMMANDS[args.command](args)
    except RootQuiltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
