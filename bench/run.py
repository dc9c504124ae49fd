"""The rootquilt benchmark: one run of one workload.

    python3 bench/run.py --workload verify-catalog --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Each pass starts a fresh interpreter
(``passrun.py``) that imports ``rootquilt`` from ``src``, loads the
workload's catalogs and runs the workload's commands through
``rootquilt.cli.main`` back to back, so no pass inherits another's caches.
Every report is checked against ``golden.json``.

With ``--trace 0`` passes repeat while the next one still fits in
``--seconds``; set-up is sampled at least three times, and up to five times
while less than ten seconds of set-up were measured; each end-to-end metric
is the median over its samples.  With ``--trace 1`` the run makes one
untraced and one traced pass and prints the per-layer metrics of the traced
one, the tracing overhead and the layers that took the most self time.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
whole record (machine, versions, load average, every sample, every failure)
is also written to ``.bench_out/``.  The exit code is 0 whenever a result
was printed, including one with ``"correct": false``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import golden
from workloads import WORKLOADS, Workload, pass_commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170
MIN_SETUPS = 5
SETUP_BUDGET_S = 10.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# The layers expected to take the most self time in each workload's traced pass.
PREDICTED_DOMINANT = {
    "verify-catalog": ("indices",),
    "verify-jobs2": ("suite.pool",),
    "certify-f4": ("catalog", "roots"),
    "triangle-rank1": ("triangle",),
}


class PassFailed(Exception):
    pass


def run_pass(workload: Workload, commands: list[list[str]], deadline: float,
             spans_path: Path | None = None, pass_id: int = 0) -> dict:
    """Run one pass in a fresh interpreter; its set-up time is taken from launch."""
    spec = {"catalogs": list(workload.catalogs), "commands": commands, "pass_id": pass_id,
            "spans_path": None if spans_path is None else str(spans_path)}
    launched = time.monotonic()
    # A session of its own, so that a pass past the deadline is stopped with its pool workers.
    with subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(json.dumps(spec), timeout=max(1.0, deadline - launched))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassFailed("pass ran past the run's time limit") from None
    if proc.returncode != 0:
        lines = stderr.strip().splitlines()
        raise PassFailed(lines[-1] if lines else f"pass exited with {proc.returncode}")
    result = json.loads(stdout)
    result["setup_s"] = result["ready"] - launched
    result["elapsed_s"] = time.monotonic() - launched
    return result


def check_pass(result: dict, golden_records: dict) -> list[str]:
    """One line per command whose output does not match its golden record."""
    failures = []
    for c in result["commands"]:
        why = golden.check(c["argv"], c["exit"], c["report"].encode("latin-1"), golden_records)
        if why is not None:
            failures.append(f"{golden.command_key(c['argv'])}: {why}")
    return failures


def run_record(seed: int) -> dict:
    """What identifies the code, the machine and how busy it was."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "src").rglob("*.json")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = git.stdout.strip() or None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": seed,
        "loadavg_1min_start": os.getloadavg()[0],
    }


class Run:
    """The passes of one run, with every command attempted and every mismatch."""

    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.golden = golden.load()
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.notes: dict = {}

    def attempt(self, pass_id: int, spans_path: Path | None = None) -> dict | None:
        """Run and check one pass; a pass that crashes fails all its commands."""
        commands = pass_commands(self.workload, self.seed, pass_id)
        self.attempted += len(commands)
        try:
            result = run_pass(self.workload, commands, self.deadline, spans_path, pass_id)
        except PassFailed as exc:
            self.failures += [f"{golden.command_key(c)}: {exc}" for c in commands]
            return None
        self.failures += check_pass(result, self.golden)
        return result

    def timed(self, seconds: float) -> dict:
        """Untraced passes for ``seconds``, then extra set-ups; medians of each metric."""
        passes = []
        begin = time.monotonic()
        while True:
            result = self.attempt(len(passes))
            last = 0.0
            if result is not None:
                passes.append(result)
                last = result["elapsed_s"]
            now = time.monotonic()
            if now - begin + last > seconds or now + last > self.deadline:
                break
        setups = [p["setup_s"] for p in passes]
        while (len(setups) < MIN_SETUPS and (len(setups) < 3 or sum(setups) < SETUP_BUDGET_S)
               and time.monotonic() < self.deadline - 30):
            try:
                setups.append(run_pass(self.workload, [], self.deadline)["setup_s"])
            except PassFailed as exc:
                self.attempted += 1
                self.failures.append(f"set-up only: {exc}")
                break
        self.samples = {"setup_s": setups}
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            self.samples[key] = [p[key] for p in passes]
        return {k: (statistics.median(v), END_TO_END_UNITS[k]) for k, v in self.samples.items() if v}

    def traced(self) -> dict:
        """One untraced and one traced pass; the per-layer metrics of the traced one."""
        from spans import Spans, layer_metrics, layer_shares

        plain = self.attempt(0)
        spans_path = OUT / f"spans-{self.workload.name}.npz"
        traced = self.attempt(1, spans_path)
        if plain is None or traced is None:
            return {}
        spans = Spans.load(spans_path)
        metrics = layer_metrics(spans)
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        # Spans cover set-up (catalog loads) and the pass, so shares are of both.
        shares = layer_shares(spans)
        predicted = PREDICTED_DOMINANT[self.workload.name]
        top = sorted(shares, key=shares.get, reverse=True)[: len(predicted)]
        share = sum(shares[k] for k in top) / (traced["setup_s"] + traced["wall_s"])
        verdict = "confirmed" if set(top) == set(predicted) else "corrected"
        self.notes = {
            "layer_self_s": shares,
            "dominant": f"{'+'.join(top)} ({share:.0%} of the traced set-up and pass); "
                        f"predicted {'+'.join(predicted)}: {verdict}",
        }
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    if not (ROOT / "src" / "rootquilt" / "__init__.py").is_file():
        print(f"error: no rootquilt sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    record = run_record(args.seed)
    run = Run(workload, args.seed, start + RUN_LIMIT_S)
    metrics = run.traced() if args.trace else run.timed(args.seconds)
    record["loadavg_1min_end"] = os.getloadavg()[0]

    failed = len(run.failures)
    print(f"workload {workload.name}: closed loop, 1 client, {len(workload.commands)} commands a pass, "
          f"seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        count = f"  median of {len(run.samples[name])}" if name in run.samples else ""
        print(f"  {name:40s} {value:14.6g} {unit}{count}")
    print(f"  {'failed_frac':40s} {failed / max(run.attempted, 1):14.6g} ratio ({failed} of {run.attempted} commands)")
    for line in run.failures:
        print(f"  MISMATCH {line}")
    if "dominant" in run.notes:
        print(f"  dominant layer: {run.notes['dominant']}")
    print("record " + json.dumps(record, sort_keys=True))

    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"record": record, "metrics": metrics, "samples": run.samples, "failures": run.failures, **run.notes},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
