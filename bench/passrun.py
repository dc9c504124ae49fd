"""One benchmark pass, in a fresh interpreter.

Reads a JSON spec on standard input: the catalogs to load during set-up, the
commands to run, and whether to trace.  Set-up imports ``rootquilt`` from the
checkout's ``src`` and loads the catalogs; then each command goes through
``rootquilt.cli.main(argv)`` with its report bytes captured.  Prints one JSON
object with the moment set-up finished (``time.monotonic``, comparable with
the parent's clock), the pass wall and CPU time, the peak resident memory
and, per command, the exit code and the report bytes (as latin-1 text).
With tracing on, the spans go to the spec's ``spans_path`` at the end.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _run_command(cli, argv: list[str]) -> tuple[int | str, bytes]:
    captured = io.BytesIO()
    real_stdout = sys.stdout
    sys.stdout = capture = io.TextIOWrapper(captured, encoding="utf-8")
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash fails this command; the pass goes on
        traceback.print_exc()
        code = "exception"
    finally:
        capture.flush()
        sys.stdout = real_stdout
    return code, captured.getvalue()


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    import rootquilt
    from rootquilt import cli

    tracer = None
    if spec.get("spans_path"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    for path in spec["catalogs"]:
        rootquilt.load_catalog(path)
    ready = time.monotonic()

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    commands = []
    for i, argv in enumerate(spec["commands"]):
        if tracer is not None:
            tracer.current_command = i
        code, report = _run_command(cli, argv)
        commands.append({"argv": argv, "exit": code, "report": report.decode("latin-1")})
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        tracer.dump(spec["spans_path"], spec["pass_id"])
    json.dump(
        {"ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024, "commands": commands},
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
