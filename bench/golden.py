"""Golden outputs: the exit code and report SHA-256 of every benchmark command.

Exact reports are compared byte for byte through their SHA-256.  A report
with triangle solves also carries decimal residuals, which may move in the
last digits; those values are masked before hashing, so every exact row
still compares byte for byte, and each masked residual is checked against
its threshold instead (corner <= 1e-8, boundary deviation < 1e-6, hull
violation <= tol).

``python3 bench/golden.py`` records ``golden.json`` from the code in the
checkout.  The file in the repository was recorded from commit aa62cbf, the
code the benchmark was introduced against; do not re-record it to make a
changed program pass.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
HULL_TOL = 1e-9  # the CLI's default --tol, which the triangle commands keep

_RESIDUAL_ROW = re.compile(
    rb'("item":"[^"]*:(corner_residual|boundary_deviation|hull_violation)",'
    rb'"section":"triangle","value":")([^"]*)(")'
)
_RESIDUAL_CHECK = re.compile(rb'("detail":")(residual [^"]*)(","name":"triangle\[)')
_LIMITS = {
    "corner_residual": lambda x: x <= 1e-8,
    "boundary_deviation": lambda x: x < 1e-6,
    "hull_violation": lambda x: x <= HULL_TOL,
}


def command_key(argv) -> str:
    return " ".join(argv)


def mask_residuals(report: bytes) -> tuple[bytes, list[tuple[str, float]]]:
    """The report with its decimal triangle residuals replaced by ``*``, and those values."""
    values: list[tuple[str, float]] = []

    def row(match: re.Match) -> bytes:
        values.append((match.group(2).decode(), float(match.group(3))))
        return match.group(1) + b"*" + match.group(4)

    masked = _RESIDUAL_ROW.sub(row, report)
    masked = _RESIDUAL_CHECK.sub(lambda m: m.group(1) + b"*" + m.group(3), masked)
    return masked, values


def fingerprint(exit_code, report: bytes) -> dict:
    """What the golden file stores for one command's output."""
    masked, values = mask_residuals(report)
    return {
        "exit": exit_code,
        "sha256": hashlib.sha256(masked).hexdigest(),
        "residuals": len(values),
    }


def check(argv, exit_code, report: bytes, golden: dict) -> str | None:
    """None when the output matches its golden record, else what differs."""
    want = golden.get(command_key(argv))
    if want is None:
        return "no golden record for this command"
    if exit_code != want["exit"]:
        return f"exit code {exit_code}, golden {want['exit']}"
    masked, values = mask_residuals(report)
    if hashlib.sha256(masked).hexdigest() != want["sha256"]:
        return "report bytes differ from the golden output"
    if len(values) != want["residuals"]:
        return f"{len(values)} triangle residuals, golden {want['residuals']}"
    for name, value in values:
        if not _LIMITS[name](value):
            return f"{name} {value!r} is over its threshold"
    try:
        passed = json.loads(report)["passed"]
    except (ValueError, KeyError):
        return "report is not a JSON report"
    if passed is not True:
        return "report says passed: false"
    return None


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["commands"]


def record() -> None:
    from workloads import all_commands

    spec = {"catalogs": [], "commands": [list(c) for c in all_commands()]}
    out = subprocess.run(
        [sys.executable, str(HERE / "passrun.py")],
        input=json.dumps(spec), capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    commands = {}
    for c in json.loads(out.stdout)["commands"]:
        commands[command_key(c["argv"])] = fingerprint(c["exit"], c["report"].encode("latin-1"))
    GOLDEN_PATH.write_text(json.dumps({"commands": commands}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
