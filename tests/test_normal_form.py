"""The exact kernel's normal form: an int when integral, a Fraction only when not.

Three guards.  No ``/`` in an exact module outside ``linalg.div``, so that
``int / int`` cannot make a float.  Every coordinate the loaders and the
shift build from the catalogs is in normal form.  And the kernel agrees
with the all-``Fraction`` ``reflect`` and ``close_orbits`` it replaced,
kept in ``tests/oracles.py``, on integral and "p/q" inputs; ``dot`` meets
its oracle in ``test_linalg.py``.
"""

import ast
import functools
from fractions import Fraction as F
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from rootquilt import canonical_shift, load_catalog
from rootquilt.catalog import _ROOT_COUNT, _read_entries, close_orbits
from rootquilt.indices import monotone_data
from rootquilt.linalg import div, dot, exact, parse_rational, reflect

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rootquilt"
EXACT_MODULES = ("linalg", "catalog", "roots", "lattice", "indices", "ring", "suite")
CATALOGS = (
    None,
    str(ROOT / "tests" / "data" / "extra_catalog.json"),
    str(ROOT / "bench" / "data" / "f4.json"),
)


def _is_normal(x) -> bool:
    return type(x) is int or (type(x) is F and x.denominator != 1)


# -- no true division outside the one helper -----------------------------------


def _divisions(tree: ast.AST, skip: ast.AST | None = None) -> list[int]:
    """Line numbers of every ``/`` and ``/=`` in ``tree``, outside ``skip``."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    return [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)
        and id(n) not in inside
    ]


def test_exact_modules_divide_only_through_div():
    found = []
    for name in EXACT_MODULES:
        tree = ast.parse((SRC / f"{name}.py").read_text())
        helper = next(
            (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "div"), None
        )
        assert (helper is not None) == (name == "linalg")
        found += [f"{name}.py:{line}" for line in _divisions(tree, helper)]
    assert found == []


def test_the_division_guard_sees_a_division():
    tree = ast.parse("def f(x):\n    x /= 2\n    return (x + 1) / 3\n")
    assert sorted(_divisions(tree)) == [2, 3]


# -- every built coordinate is in normal form ----------------------------------


@functools.cache
def _entries():
    return tuple(e for path in CATALOGS for e in load_catalog(path))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_built_coordinates_are_in_normal_form(data):
    entry = data.draw(st.sampled_from(_entries()))
    radius = data.draw(st.sampled_from([0, 1, F(3, 2), 2] + ([] if entry.rank > 3 else [3])))
    system, lattice = entry.system, entry.lattice
    shift = canonical_shift(system, lattice, radius=radius)
    md = monotone_data(system)
    coordinates = [
        *(x for row in system.gram for x in row),
        *(x for root in system.roots for x in root),
        *system.base_point,
        *(x for b in lattice.basis for x in b),
        *shift.a,
        *(x for q in shift.window_points() for x in q),
        *md.rho, *md.x0, md.tau,
        *shift.filtration,
    ]
    assert [x for x in coordinates if not _is_normal(x)] == []


# -- the kernel against the all-Fraction oracles -------------------------------

# integral and "p/q" scalars, in normal form as parse_rational returns them
SCALARS = st.integers(-6, 6) | st.builds(
    lambda p, q: parse_rational(f"{p}/{q}"), st.integers(-12, 12), st.integers(1, 6)
)


def _fractions(v):
    return tuple(map(F, v))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(*[st.tuples(SCALARS, SCALARS, SCALARS)] * n)))
@example(((2, 1, 1), (-1, 0, 5)))  # an integral reflection: pure int
def test_reflect_matches_the_fraction_oracle(triples):
    g_alpha, alpha, v = (tuple(t[i] for t in triples) for i in range(3))
    assume(dot(g_alpha, alpha) != 0)
    got = reflect(g_alpha, alpha, v)
    assert got == oracles.reflect(_fractions(g_alpha), _fractions(alpha), _fractions(v))
    assert all(map(_is_normal, got))


@functools.cache
def _raw_systems():
    """(Gram matrix, seeds, root count of the declared type) of every catalog entry, parsed."""
    out = []
    for path in CATALOGS:
        for raw in _read_entries(path):
            gram = tuple(tuple(map(parse_rational, row)) for row in raw["gram"])
            seeds = [(tuple(map(parse_rational, o["seed"])), o["mult"]) for o in raw["orbits"]]
            cartan = raw["cartan_type"]
            out.append((gram, seeds, _ROOT_COUNT[cartan["family"]](cartan["rank"])))
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_close_orbits_matches_the_fraction_oracle(data):
    # scaling the Gram matrix keeps every reflection, scaling the seeds
    # scales every root: both draw "p/q" data from the catalog's integers
    gram, seeds, count = data.draw(st.sampled_from(_raw_systems()), label="entry")
    c = data.draw(st.sampled_from([1, F(1, 2), F(2, 3), 3]), label="gram scale")
    d = data.draw(st.sampled_from([1, F(1, 2), F(-3, 2), 2]), label="seed scale")
    gram = tuple(tuple(exact(c * x) for x in row) for row in gram)
    seeds = [(tuple(exact(d * x) for x in s), m) for s, m in seeds]
    got = close_orbits(gram, seeds, count)
    expected = oracles.close_orbits(
        tuple(map(_fractions, gram)), [(_fractions(s), m) for s, m in seeds]
    )
    assert list(got.items()) == list(expected.items())
    assert all(_is_normal(x) for root in got for x in root)


def test_div_is_exact_and_in_normal_form():
    assert div(6, 3) == 2 and type(div(6, 3)) is int
    assert div(3, 6) == F(1, 2) and type(div(-3, 6)) is F
    assert div(F(1, 2), F(1, 4)) == 2 and type(div(F(1, 2), F(1, 4))) is int
    assert div(-7, F(7, 3)) == -3 and type(div(-7, F(7, 3))) is int
