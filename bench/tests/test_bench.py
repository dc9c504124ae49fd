"""Tests of the benchmark itself: golden checks, printed metrics, span arithmetic.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
They start real passes of the cheapest workload, so they take about half a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import run  # noqa: E402
from spans import POOL_SPAN, Spans  # noqa: E402
from workloads import WORKLOADS, pass_commands  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRIANGLE = WORKLOADS["triangle-rank1"]


def bench_run(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "triangle-rank1", "--seed", "9001", "--seconds", "0", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def triangle_pass() -> dict:
    return run.run_pass(TRIANGLE, [list(c) for c in TRIANGLE.commands[:1]], deadline=time.monotonic() + 120)


def _flip(report: str, old: str, new: str) -> bytes:
    assert old in report
    return report.replace(old, new, 1).encode("latin-1")


def test_golden_accepts_the_recorded_output(triangle_pass):
    assert run.check_pass(triangle_pass, golden.load()) == []


def test_one_byte_corruption_of_an_exact_row_fails(triangle_pass):
    c = triangle_pass["commands"][0]
    corrupted = _flip(c["report"], '"value":"0,-32/17"', '"value":"0,-31/17"')
    assert golden.check(c["argv"], c["exit"], corrupted, golden.load()) == "report bytes differ from the golden output"


def test_residuals_are_checked_by_threshold_not_bytes(triangle_pass):
    c = triangle_pass["commands"][0]
    masked, values = golden.mask_residuals(c["report"].encode("latin-1"))
    assert len(values) == 30 and b'"value":"*"' in masked
    corner = next(v for name, v in values if name == "corner_residual")
    nearby = _flip(c["report"], f"{corner:.12g}", "5e-9")
    assert golden.check(c["argv"], c["exit"], nearby, golden.load()) is None
    over = _flip(c["report"], f"{corner:.12g}", "2e-8")
    assert "corner_residual" in golden.check(c["argv"], c["exit"], over, golden.load())


def test_one_byte_corruption_is_counted_in_failed_frac(monkeypatch, capsys):
    real = run.run_pass

    def corrupting(workload, commands, *args, **kwargs):
        result = real(workload, commands, *args, **kwargs)
        if commands:
            report = result["commands"][0]["report"]
            i = report.index('"passed":true') - 2
            result["commands"][0]["report"] = report[:i] + chr(ord(report[i]) ^ 1) + report[i + 1:]
        return result

    monkeypatch.setattr(run, "run_pass", corrupting)
    assert run.main(["--workload", "triangle-rank1", "--seed", "9002", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert any("failed_frac" in line and "(1 of 3 commands)" in line for line in lines)
    assert any(line.strip().startswith("MISMATCH verify --pair") for line in lines)


def test_printed_end_to_end_metrics_match_benchmark_json():
    lines, result = bench_run("--trace", "0")
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:
        assert any(line.split()[0] == name for line in lines if line.startswith("  "))


@pytest.fixture(scope="module")
def traced_run():
    return bench_run("--trace", "1")


def test_printed_per_layer_metrics_match_benchmark_json(traced_run):
    lines, result = traced_run
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert any(line.strip().startswith("dominant layer:") for line in lines)


def _check_self_times(spans: Spans) -> None:
    own = spans.self_ns()
    assert (own >= 0).all()
    assert (own <= spans.duration).all()
    roots = spans.parent < 0
    assert own.sum() == spans.duration[roots].sum()


def test_self_times_of_a_real_trace(traced_run):
    spans = Spans.load(ROOT / ".bench_out" / "spans-triangle-rank1.npz")
    assert len(spans.name) > 100
    _check_self_times(spans)


def test_self_times_of_nested_spans():
    names = ["cli.main", "indices.ugly_index", "indices.quilt_index", "roots.chamber_of", POOL_SPAN]
    #  0 cli.main              [0, 100]
    #  1   indices.ugly_index  [10, 60]
    #  2     indices.quilt_index [20, 50]
    #  3       roots.chamber_of  [25, 30]
    #  4   suite.pool          [70, 95]
    spans = Spans(
        name=[0, 1, 2, 3, 4], parent=[-1, 0, 1, 2, 0], command=[0] * 5,
        start=[0, 10, 20, 25, 70], end=[100, 60, 50, 30, 95], names=names, counts={},
    )
    _check_self_times(spans)
    assert list(spans.self_ns()) == [25, 20, 25, 5, 25]
    assert spans.outer_s("indices.ugly_index", "indices.quilt_index") == 50 / 1e9
    assert spans.layer_self_s("indices") == 45 / 1e9
    assert spans.layer_self_s("suite", exclude=(POOL_SPAN,)) == 0.0


def test_the_seed_only_permutes_commands():
    for workload in WORKLOADS.values():
        a, b = pass_commands(workload, 7, 0), pass_commands(workload, 7, 0)
        assert a == b
        assert sorted(map(tuple, a)) == sorted(workload.commands)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "triangle-rank1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
