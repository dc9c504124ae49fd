"""Suite orchestration and the command line surface."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracles
from rootquilt import Lattice, Mode, canonical_shift, get_entry, suite
from rootquilt.catalog import CATALOG_SCHEMA_ID
from rootquilt.cli import _join_negative_values, build_parser, main
from rootquilt.lattice import DEFAULT_POINT_CAP
from rootquilt.suite import Report, _add_bad_ugly_sweep, run_suite

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "rootquilt", *args],
        capture_output=True,
        env=env,
        cwd=REPO,
        timeout=timeout,
    )


def check_status(report):
    return {c.name: c.status for c in report.checks}


def test_suite_radius_zero_advisories(group_a1):
    report = run_suite(group_a1, radius=F(0))
    status = check_status(report)
    assert status["triangularity"] == "advisory"
    assert status["finitely_generated"] == "advisory"
    assert all(s == "pass" for name, s in status.items() if not name.startswith(("triangularity", "finitely_generated")))
    assert report.passed


def test_suite_group_a1_worked_parameters(group_a1):
    report = run_suite(group_a1, tau=F(1, 8), epsilon=F(1, 40), radius=F(3))
    assert report.passed
    values = {(r["section"], r["item"]): r["value"] for r in report.rows}
    assert values[("monotone", "x0")] == "1/2"
    assert values[("filtration", "e")] == "2/5"
    assert values[("filtration", "s1")] == "8/5"
    assert values[("counts", "generators")] == "10"
    assert values[("bad_ugly", "s1;1")] == "ugly:18"


def test_suite_eiv_radius_one_parity():
    entry = get_entry("eiv-a2")
    report = run_suite(entry, radius=F(1))
    values = {(r["section"], r["item"]): r["value"] for r in report.rows}
    assert values[("parity", "differential_must_vanish")] == "true"
    assert report.passed


def _synthetic_sweep(group_a1, filtrations):
    W = group_a1.system.weyl_group()
    points = [(F(0),), (F(1),)]
    rows = [(0, F(len(points) * W.order - i), fil) for i, fil in enumerate(filtrations)]
    report = Report("synthetic", "verify", {})
    oracles.add_implication_sweep(report, rows, points, W.elements)
    return report


def _bad_ugly_report(table, points):
    elements = get_entry("group-a1").system.weyl_group().elements
    report = Report("t", "verify", {})
    _add_bad_ugly_sweep(report, table, points, elements)
    return report


def test_bad_ugly_failure_names_first_failing_datum():
    # the window (0), (1) of group-a1, with q + a in the chamber of e, then of s1:
    # the ugly datum (s1;0) has index 0 and fails, the ugly datum (e;1) passes
    table = SimpleNamespace(chambers=[0, 1], degrees=[[5, 5], [4, 7]])
    check = _bad_ugly_report(table, [(F(0),), (F(1),)]).checks[0]
    assert check.status == "fail"
    assert check.detail == "2 bad (index 0), 2 ugly (index > 0); first failure (s1;0) ugly:0"


def test_bad_ugly_pass_detail_is_the_class_counts(group_a1):
    shift = canonical_shift(group_a1.system, group_a1.lattice, Mode.SMALL_IN_CHAMBER, F(0))
    check = _bad_ugly_report(shift, shift.window_points()).checks[0]
    assert (check.status, check.detail) == ("pass", "1 bad (index 0), 1 ugly (index > 0)")


def test_implication_failure_names_first_violating_pair(group_a1):
    # actions fall along the rows; filtrations 3,2,2,1 fail first on rows 1 -> 2
    report = _synthetic_sweep(group_a1, [F(3), F(2), F(2), F(1)])
    [check] = report.checks
    assert check.status == "fail"
    assert check.detail == "16 data pairs; first violation (s1;0) -> (e;1)"
    assert report.rows[1] == {"section": "implication", "item": "holds", "value": "15"}


def test_implication_pass_detail_is_the_pair_count(group_a1):
    report = _synthetic_sweep(group_a1, [F(4), F(3), F(2), F(1)])
    [check] = report.checks
    assert (check.status, check.detail) == ("pass", "16 data pairs")
    assert report.rows[1]["value"] == "16"


def test_suite_solves_the_triangle_map_once(group_a1, monkeypatch):
    calls = []
    solve = suite.solve_triangle

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(suite, "solve_triangle", counting_solve)
    specs = (((1,), (0,)), ((2,), ()), ((-1,), (0,)))
    report = run_suite(group_a1, radius=F(2), triangle_data=specs)
    assert len(calls) == 1
    residuals = {}
    for row in report.rows:
        if row["section"] == "triangle" and not row["item"].endswith(("p12", "p23", "p13")):
            label, kind = row["item"].split(":")
            residuals.setdefault(label, {})[kind] = row["value"]
    assert list(residuals) == ["s1;1", "e;2", "s1;-1"]
    assert len({tuple(sorted(r.items())) for r in residuals.values()}) == 1
    assert all(s == "pass" for n, s in check_status(report).items() if n.startswith("triangle["))
    run_suite(group_a1, radius=F(2))
    assert len(calls) == 1


def test_suite_includes_triangle_when_requested(group_a1):
    report = run_suite(group_a1, radius=F(2), triangle_data=(((1,), (0,)),))
    status = check_status(report)
    assert status["triangle[s1;1]"] == "pass"
    assert report.passed


def test_cli_info_lists_entries():
    proc = run_cli("info")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    for name in ("group-a1", "group-a2", "ai-a2", "aii-a1", "sphere-a1", "eiv-a2"):
        assert name in out


def test_cli_verify_group_a1():
    proc = run_cli(
        "verify", "--pair", "group-a1", "--tau", "1/8", "--epsilon", "1/40", "--radius", "3"
    )
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True
    assert doc["parameters"]["tau"] == "1/8"


def test_cli_index_worked_value():
    proc = run_cli(
        "index",
        "--pair", "group-a1",
        "--epsilon", "1/40",
        "--radius", "3",
        "--q-in", "1",
        "--w-out", "1",
        "--q-out", "1",
    )
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    values = {r["item"]: r["value"] for r in doc["rows"]}
    assert values["value"] == "18"
    assert values["class"] == "ugly"


def test_cli_product():
    proc = run_cli(
        "product",
        "--pair", "group-a2",
        "--radius", "2",
        "--q1", "1,0",
        "--w", "e",
        "--q2", "0,1",
    )
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    values = {r["item"]: r["value"] for r in doc["rows"]}
    assert values["result"] == "y[e;1,1]"


def test_cli_filtration_tsv():
    proc = run_cli(
        "filtration", "--pair", "group-a1", "--epsilon", "1/40", "--radius", "2",
        "--format", "tsv",
    )
    assert proc.returncode == 0
    lines = proc.stdout.decode().strip().split("\n")
    assert lines[0] == "section\titem\tvalue"
    assert any(line.startswith("filtration\te\t") for line in lines)


def test_cli_certify_radius_zero_is_advisory_exit_zero():
    proc = run_cli("certify", "--pair", "group-a1", "--radius", "0")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["triangularity"] == "advisory"


def test_cli_triangle():
    proc = run_cli(
        "triangle",
        "--pair", "group-a1",
        "--epsilon", "1/40",
        "--radius", "3",
        "--q", "1",
        "--w", "1",
        "--quad-nodes", "128",
        "--samples", "200",
    )
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    values = {r["item"]: r["value"] for r in doc["rows"]}
    assert float(values["corner_residual"]) < 1e-8
    assert float(values["hull_violation"]) <= 1e-9


@pytest.mark.parametrize("samples", ["0", "3", "-1", "many"])
def test_cli_triangle_rejects_too_few_samples(samples, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["triangle", "--pair", "group-a1", "--q", "1", "--w", "1", "--samples", samples])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err and "argument --samples" in err


def test_cli_triangle_accepts_four_samples(capsys):
    argv = ["triangle", "--pair", "group-a1", "--q", "1", "--w", "1", "--quad-nodes", "64"]
    assert main([*argv, "--samples", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["product", "--pair", "group-a2", "--q1", "1,0", "--w", "0", "--q2", "0,1"], "1..2"),
        (["product", "--pair", "group-a2", "--q1", "1,0", "--w", "1,3", "--q2", "0,1"], "1..2"),
        (["index", "--pair", "group-a1", "--q-in", "1", "--w-out", "2", "--q-out", "1"], "1..1"),
        (["verify", "--pair", "group-a1", "--radius", "1", "--triangle", "1"], "Q:W"),
        (["verify", "--pair", "group-a1", "--radius", "1", "--triangle", "1,2:e"], "of rank 1"),
        (["triangle", "--pair", "group-a1", "--q", "x", "--w", "1"], "integers"),
        (["triangle", "--pair", "group-a1", "--q", "1,2", "--w", "1"], "of rank 1"),
        (["triangle", "--pair", "group-a1", "--q", "1", "--w", "a"], "invalid word"),
    ],
)
def test_cli_rejects_malformed_input(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_cli_unknown_pair_fails():
    proc = run_cli("verify", "--pair", "nope")
    assert proc.returncode != 0


def test_cli_rejects_invalid_epsilon():
    proc = run_cli("verify", "--pair", "group-a1", "--epsilon", "1/2", "--radius", "2")
    assert proc.returncode == 2
    assert b"error" in proc.stderr


def test_bad_count_is_one_sector_per_chord():
    """Each chord is bad against exactly one chamber element."""
    for name in ("group-a1", "ai-a2"):
        entry = get_entry(name)
        report = run_suite(entry, radius=F(3))
        values = {(r["section"], r["item"]): r["value"] for r in report.rows}
        n = int(values[("counts", "lattice_points")])
        order = entry.system.weyl_group().order
        assert int(values[("bad_ugly", "bad_count")]) == n
        assert int(values[("bad_ugly", "ugly_count")]) == n * (order - 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--pair", "nope"], "no catalog entry named 'nope'"),
        (["certify", "--pair", "nope"], "no catalog entry named 'nope'"),
        (["verify", "--pair", "group-a1", "--radius", "-1"], "--radius must be non-negative"),
        (["filtration", "--pair", "group-a1", "--radius=-1/2"], "--radius must be non-negative"),
        (["verify", "--pair", "group-a1", "--radius", "x"], "invalid --radius 'x'"),
        (["verify", "--pair", "group-a1", "--tau", "abc"], "invalid --tau 'abc'"),
        (["verify", "--pair", "group-a1", "--tau", "1/0"], "invalid --tau '1/0'"),
        (["verify", "--pair", "group-a1", "--epsilon", "1/2/3"], "invalid --epsilon '1/2/3'"),
        (["index", "--pair", "group-a1", "--epsilon", "e", "--q-in", "1", "--w-out", "1",
          "--q-out", "1"], "invalid --epsilon 'e'"),
        (["verify", "--pair", "group-a1", "--tau", "0"], "--tau must be positive"),
        (["verify", "--pair", "group-a1", "--tau=-1/8"], "--tau must be positive"),
        (["verify", "--pair", "group-a1", "--tau", "-1/8"], "--tau must be positive"),
        (["verify", "--pair", "group-a1", "--radius", "-1/2"], "--radius must be non-negative"),
        (["info", "--pair", "nope"], "no catalog entry named 'nope'"),
    ],
)
def test_cli_rejects_invalid_parameters(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_cli_unreadable_catalog_exits_2(tmp_path, capsys):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b"\xff\xfe")
    cases = [
        (["verify", "--pair", "group-a1", "--catalog", str(tmp_path / "missing.json")],
         "No such file or directory"),
        (["info", "--catalog", str(tmp_path)], "Is a directory"),
        (["info", "--catalog", str(undecodable)], "can't decode byte 0xff"),
    ]
    for argv, reason in cases:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read catalog {argv[-1]!r}: ") and reason in err


def test_cli_indefinite_gram_exits_2(tmp_path, capsys):
    entry = {
        "name": "indefinite",
        "kind": "group",
        "cartan_type": {"family": "A", "rank": 2},
        "gram": [[1, 0], [0, -2]],
        "orbits": [{"seed": [1, 0], "mult": 2}, {"seed": [1, 1], "mult": 2}],
        "lattice_basis": [[1, 0], [0, 1]],
        "base_point": [1, 1],
        "dim_lambda": 6,
    }
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"schema": CATALOG_SCHEMA_ID, "entries": [entry]}))
    assert main(["verify", "--pair", "indefinite", "--catalog", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: entry 'indefinite': gram matrix is not positive definite\n"


def _builtin_copy(name, tmp_path, **overrides):
    """A catalog holding one built-in entry with some fields replaced."""
    doc = json.loads(resources.files("rootquilt").joinpath("data/catalog.json").read_text())
    entry = next(e for e in doc["entries"] if e["name"] == name)
    entry.update(overrides)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"schema": CATALOG_SCHEMA_ID, "entries": [entry]}))
    return str(path)


@pytest.mark.parametrize(
    "name, overrides, message",
    [
        ("group-a1", {"gram": [["2/0"]]}, "zero denominator in '2/0'"),
        ("group-a1", {"orbits": [{"seed": ["1/0"], "mult": 2}]}, "zero denominator in '1/0'"),
        ("group-a1", {"lattice_basis": [["1/0"]]}, "zero denominator in '1/0'"),
        ("group-a1", {"base_point": ["1/0"]}, "zero denominator in '1/0'"),
        ("group-a2", {"base_point": [1]}, "the base point needs 2 coordinates"),
        ("group-a1", {"orbits": [{"seed": [1], "mult": 2}, {"seed": [3], "mult": 2}]},
         "roots (-3) and (-1) are proportional with ratio 1/3"),
        ("group-a1", {"base_point": [0]}, "base point is not regular"),
        ("group-a2", {"lattice_basis": [[1, 0], [0, 2]]},
         "s2 moves basis vector (1, 0) off the lattice"),
        ("group-a1", {"weyl_order": 4.0}, "Weyl group order 2 differs from declared 4"),
    ],
    ids=["gram-1/0", "seed-1/0", "basis-1/0", "base-1/0", "base-length", "proportional",
         "base-on-wall", "lattice-unstable", "float-weyl-order"],
)
def test_malformed_builtin_copy_exits_2_naming_the_entry(
    tmp_path, capsys, name, overrides, message
):
    path = _builtin_copy(name, tmp_path, **overrides)
    assert main(["verify", "--pair", name, "--catalog", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: entry '{name}': {message}\n"


def test_seeds_that_never_close_exit_2_at_the_declared_root_count(tmp_path):
    # (3, 1) is no root of A2: its reflections never close, so the closure
    # must stop at the seventh root rather than run on (a timeout fails it)
    orbits = [{"seed": [1, 0], "mult": 8}, {"seed": [3, 1], "mult": 8}]
    path = _builtin_copy("eiv-a2", tmp_path, orbits=orbits)
    result = run_cli("info", "--pair", "eiv-a2", "--catalog", path, timeout=2)
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr == (
        b"error: entry 'eiv-a2': the seeds reflect to more than 6 roots,"
        b" the count of the declared type\n"
    )


def test_integral_floats_in_a_catalog_give_the_builtin_bytes(tmp_path):
    path = _builtin_copy(
        "group-a1", tmp_path, cartan_type={"family": "A", "rank": 1.0}, dim_lambda=2.0,
        dim_space=3.0, weyl_order=2.0,
    )
    for command in ("verify", "info"):
        copied = run_cli(command, "--pair", "group-a1", "--catalog", path)
        builtin = run_cli(command, "--pair", "group-a1")
        assert copied.returncode == builtin.returncode == 0
        assert copied.stdout == builtin.stdout


# -- numeric options ----------------------------------------------------------


@pytest.mark.parametrize(
    "option, value",
    [("--quad-nodes", "0"), ("--quad-nodes", "8"), ("--quad-nodes", "15"),
     ("--quad-nodes", "x"), ("--jobs", "0"), ("--jobs", "-3"), ("--jobs", "2.5")],
)
def test_cli_rejects_out_of_range_counts(option, value, capsys):
    argv = ["verify", "--pair", "group-a1", "--radius", "1", "--triangle", "0:e", option, value]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err and f"argument {option}: " in err
    assert "Traceback" not in err


def test_cli_accepts_the_smallest_counts(capsys):
    argv = ["verify", "--pair", "group-a1", "--radius", "1", "--triangle", "0:e"]
    assert main([*argv, "--quad-nodes", "16", "--jobs", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "x"])
def test_cli_rejects_a_tolerance_that_is_not_finite_and_non_negative(value, capsys):
    argv = ["verify", "--pair", "group-a1", "--radius", "1", "--tol", value, "--triangle", "0:e"]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: argument --tol: " in err and "Traceback" not in err


def test_cli_accepts_a_zero_tolerance(capsys):
    argv = ["verify", "--pair", "group-a1", "--radius", "1", "--tol", "0", "--triangle", "0:e"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


# -- abbreviated rational options ---------------------------------------------


@pytest.mark.parametrize(
    "argv, joined",
    [
        (["verify", "--pair", "p", "--radius", "-1/2"], ["verify", "--pair", "p", "--radius=-1/2"]),
        (["verify", "--pair", "p", "--rad", "-1/2"], ["verify", "--pair", "p", "--rad=-1/2"]),
        (["certify", "--eps", "-1/3", "--pair", "p"], ["certify", "--eps=-1/3", "--pair", "p"]),
        (["verify", "--pair", "p", "--jo", "-3"], ["verify", "--pair", "p", "--jo=-3"]),
        (["triangle", "--pair", "p", "--q", "-1,0"], ["triangle", "--pair", "p", "--q=-1,0"]),
        # an option that already has its value, the end-of-options marker,
        # and a flag or a word after an option stay apart
        (["verify", "--pair", "p", "--radius=1", "-1"], None),
        (["verify", "--pair", "p", "--", "-1"], None),
        (["verify", "--pair", "p", "--rad", "-h"], None),
        (["verify", "--pair", "p", "-h", "-1"], None),
    ],
)
def test_join_negative_values(argv, joined):
    assert _join_negative_values(argv) == (argv if joined is None else joined)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--pair", "group-a1", "--rad", "-1/2"], "--radius must be non-negative"),
        (["filtration", "--pair", "group-a1", "--ra", "-1"], "--radius must be non-negative"),
        (["verify", "--pair", "group-a1", "--ta", "-1/8"], "--tau must be positive"),
        (["verify", "--pair", "group-a1", "--radius", "1", "--eps", "-1/3"],
         "check generic_shift aborted: shift fails beta=(1)"),
    ],
)
def test_cli_abbreviated_rational_options_take_negative_values(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["verify", "filtration"])
def test_cli_ambiguous_prefix_keeps_the_argparse_error(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--pair", "group-a1", "--t", "-1/2"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "ambiguous option: --t=-1/2 could match --tau, --tol" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--jo", "-3"], "argument --jobs: -3 is too few; at least 1 is needed"),
        (["--quad", "-16"], "argument --quad-nodes: -16 is too few"),
    ],
)
def test_cli_abbreviated_count_options_keep_their_own_check(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--pair", "group-a1", *argv])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


COMMON_DEFAULTS = {
    "pair": "group-a1",
    "catalog": None,
    "tau": None,
    "epsilon": None,
    "radius": "3",
    "format": "json",
    "jobs": 1,
    "tol": 1e-9,
    "quad_nodes": 256,
}
OWN_OPTIONS = {
    "verify": [],
    "index": ["--q-in", "0", "--w-out", "e", "--q-out", "0"],
    "filtration": [],
    "product": ["--q1", "0", "--w", "e", "--q2", "0"],
    "certify": [],
    "triangle": ["--q", "0", "--w", "e"],
}


@pytest.mark.parametrize("command", sorted(OWN_OPTIONS))
def test_every_shift_command_parses_the_common_options(command):
    parser = build_parser()
    args = parser.parse_args([command, "--pair", "group-a1", *OWN_OPTIONS[command]])
    assert {key: getattr(args, key) for key in COMMON_DEFAULTS} == COMMON_DEFAULTS
    given = ["--catalog", "c.json", "--tau", "1/8", "--epsilon", "1/40", "--radius", "2",
             "--format", "tsv", "--jobs", "2", "--tol", "1e-6", "--quad-nodes", "64"]
    args = parser.parse_args([command, "--pair", "p", *OWN_OPTIONS[command], *given])
    assert (args.pair, args.catalog, args.tau, args.epsilon, args.radius, args.format,
            args.jobs, args.tol, args.quad_nodes) == (
        "p", "c.json", "1/8", "1/40", "2", "tsv", 2, 1e-6, 64)


# -- shift validation messages ------------------------------------------------


@pytest.mark.parametrize(
    "pair, epsilon, message",
    [
        ("group-a1", "1/2", "2*alpha(q+a) = -4 at alpha=(-1), q=(0)"),
        ("group-a2", "1/3", "|2*alpha(a)| >= 1/2 at alpha=(-1, -1)"),
        ("group-a1", "-1/3", "shift fails beta=(1)"),
    ],
)
def test_cli_shift_errors_print_exact_vectors(pair, epsilon, message, capsys):
    for form in ([f"--epsilon={epsilon}"], ["--epsilon", epsilon]):
        assert main(["verify", "--pair", pair, "--radius", "1", *form]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: check generic_shift aborted: {message}\n"


def test_cli_index_outside_the_window_prints_the_exact_vector(capsys):
    argv = ["index", "--pair", "group-a1", "--q-in", "9", "--w-out", "1", "--q-out", "0"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: (9) lies outside the validated window\n"


# -- the window ---------------------------------------------------------------


def test_verify_enumerates_each_window_once(monkeypatch, capsys):
    calls = []
    points = Lattice.points

    def counting(self, radius, cap=DEFAULT_POINT_CAP):
        calls.append(radius)
        return points(self, radius, cap)

    monkeypatch.setattr(Lattice, "points", counting)
    for pair in ("group-a1", "ai-a2"):
        for epsilon in ([], ["--epsilon", "1/101"]):
            calls.clear()
            assert main(["verify", "--pair", pair, "--radius", "2", *epsilon]) == 0
            assert calls == [F(2)]
    capsys.readouterr()


def test_verify_past_the_point_cap_aborts_in_the_shift_check(capsys):
    assert main(["verify", "--pair", "group-a1", "--radius", "400000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: check generic_shift aborted:"
        f" window holds more than {DEFAULT_POINT_CAP} lattice points\n"
    )


# -- the import path ----------------------------------------------------------


def _verify_in_a_fresh_process(*argv):
    """The report bytes of one verify run; asserts it loaded neither jsonschema
    nor the process pool module."""
    script = (
        "import sys\n"
        "import rootquilt\n"
        "from rootquilt import cli\n"
        "code = cli.main(['verify', *sys.argv[1:]])\n"
        "heavy = ('jsonschema', 'concurrent.futures.process')\n"
        "print(sorted(m for m in heavy if m in sys.modules), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, env=env, cwd=REPO, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode() == "[]\n"
    return proc.stdout


def test_serial_verify_loads_neither_jsonschema_nor_the_pool():
    _verify_in_a_fresh_process("--pair", "group-a1", "--radius", "1")
    # --jobs changes neither the bytes nor the modules loaded, on 114 bad/ugly data
    argv = ("--pair", "group-a2", "--radius", "3")
    assert _verify_in_a_fresh_process(*argv, "--jobs", "2") == _verify_in_a_fresh_process(
        *argv, "--jobs", "1"
    )


# -- one process, many commands -----------------------------------------------


def test_verify_without_triangle_after_one_with_it_has_no_triangle_rows(capsys):
    argv = ["verify", "--pair", "group-a1", "--radius", "2"]
    assert main([*argv, "--triangle", "1:e"]) == 0
    with_triangle = json.loads(capsys.readouterr().out)
    assert any(row["section"] == "triangle" for row in with_triangle["rows"])
    assert main(argv) == 0
    without = json.loads(capsys.readouterr().out)
    assert not any(row["section"] == "triangle" for row in without["rows"])
    assert not any(check["name"].startswith("triangle") for check in without["checks"])
