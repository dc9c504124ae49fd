"""The names ``bench/spans.py`` wraps must stay on the package.

The tracer rebinds the callables listed in its ``TIMED`` and ``COUNTED``
tables, and the suite's ``ProcessPoolExecutor``, by name; a refactor that
renames or removes one would break ``bench/run.py --trace 1`` without any
other test noticing.  The module is executed from its source, so nothing is
written under ``bench/``.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    return runpy.run_path(str(SPANS))


def _traced_names(spans):
    for (module, owner), attrs in spans["TIMED"].items():
        for attr in attrs:
            yield module, owner, attr
    for module, attrs in spans["COUNTED"].items():
        for attr in attrs:
            yield module, None, attr


def test_every_traced_name_resolves(spans):
    missing = []
    for module, owner, attr in _traced_names(spans):
        target = importlib.import_module(f"rootquilt.{module}")
        if owner is not None:
            target = getattr(target, owner, None)
        if not callable(getattr(target, attr, None)):
            missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
    assert missing == []


def test_the_suite_pool_resolves():
    from concurrent.futures import ProcessPoolExecutor

    from rootquilt import suite

    assert suite.ProcessPoolExecutor is ProcessPoolExecutor
