"""Catalog loading, validation errors, and report serialization."""

import json
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootquilt import InvariantViolation, SchemaError, catalog, load_catalog
from rootquilt.catalog import CATALOG_SCHEMA, CATALOG_SCHEMA_ID, close_orbits, get_entry
from rootquilt.linalg import dot, gram_pair, mat_vec, parse_rational
from rootquilt.suite import REPORT_SCHEMA, Report, emit, run_suite


def test_builtins_load(catalog):
    names = [e.name for e in catalog]
    assert names == ["group-a1", "group-a2", "ai-a2", "aii-a1", "sphere-a1", "eiv-a2"]


def test_group_a1_data(group_a1):
    assert group_a1.rank == 1
    assert set(group_a1.system.mult.values()) == {2}
    assert group_a1.lattice.basis == ((F(1),),)
    assert group_a1.system.weyl_group().order == 2


def test_aii_multiplicity_via_dimension_count():
    """dim G/K = rank + sum of multiplicities: 5 = 1 + m forces m = 4."""
    entry = get_entry("aii-a1")
    assert entry.dim_space == 5
    assert entry.dim_space - entry.rank == 4
    assert set(entry.system.mult.values()) == {4}


def test_eiv_entry():
    entry = get_entry("eiv-a2")
    assert entry.family == "A" and entry.rank == 2
    assert set(entry.system.mult.values()) == {8}
    assert entry.system.weyl_group().order == 6
    assert entry.dim_lambda == 24
    assert "F4" in entry.provenance


def test_get_entry_builds_the_entry_load_catalog_builds(catalog):
    assert len(catalog) == 6
    for full in catalog:
        one = get_entry(full.name)
        assert emit(run_suite(one, radius=F(2))) == emit(run_suite(full, radius=F(2)))


def test_get_entry_missing_name_is_key_error():
    with pytest.raises(KeyError, match="no catalog entry named 'nope'"):
        get_entry("nope")


def test_get_entry_validates_the_whole_document(tmp_path):
    broken = _a1_entry(name="broken", dim_lambda=3)
    path = _write_catalog(tmp_path, [_a1_entry(), broken])
    assert get_entry("test-a1", path).name == "test-a1"  # only the named entry is built
    with pytest.raises(InvariantViolation):
        get_entry("broken", path)
    with pytest.raises(SchemaError, match="duplicate"):
        get_entry("test-a1", _write_catalog(tmp_path, [_a1_entry(), _a1_entry()]))
    with pytest.raises(SchemaError, match="schema validation"):
        get_entry("test-a1", _write_catalog(tmp_path, [_a1_entry(), {"name": "x"}]))


def test_multiplicity_equivariance_full_group(catalog):
    for entry in catalog:
        sys_ = entry.system
        for w in sys_.weyl_group():
            for r in sys_.roots:
                assert sys_.mult[w(r)] == sys_.mult[r]


def _write_catalog(tmp_path, entries):
    doc = {"schema": CATALOG_SCHEMA_ID, "entries": entries}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _a1_entry(**overrides):
    entry = {
        "name": "test-a1",
        "kind": "group",
        "cartan_type": {"family": "A", "rank": 1},
        "gram": [[2]],
        "orbits": [{"seed": [1], "mult": 2}],
        "lattice_basis": [[1]],
        "base_point": [1],
        "dim_lambda": 2,
    }
    entry.update(overrides)
    return entry


def test_malformed_gram_is_schema_error(tmp_path):
    path = _write_catalog(
        tmp_path,
        [
            {
                "name": "bad",
                "kind": "group",
                "cartan_type": {"family": "A", "rank": 2},
                "gram": [[2, -1], [0, 2]],
                "orbits": [{"seed": [1, 0], "mult": 1}, {"seed": [0, 1], "mult": 1}],
                "lattice_basis": [[1, 0], [0, 1]],
                "base_point": [1, 1],
                "dim_lambda": 3,
            }
        ],
    )
    with pytest.raises(SchemaError, match="symmetric"):
        load_catalog(path)


def test_missing_field_is_schema_error(tmp_path):
    entry = _a1_entry()
    del entry["gram"]
    with pytest.raises(SchemaError):
        load_catalog(_write_catalog(tmp_path, [entry]))


def test_float_value_is_schema_error(tmp_path):
    with pytest.raises(SchemaError):
        load_catalog(_write_catalog(tmp_path, [_a1_entry(gram=[[2.0]])]))


def test_invalid_json_is_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="JSON"):
        load_catalog(str(path))


def test_wrong_dim_lambda_is_invariant_violation(tmp_path):
    with pytest.raises(InvariantViolation, match="multiplicity"):
        load_catalog(_write_catalog(tmp_path, [_a1_entry(dim_lambda=3)]))


def test_wrong_weyl_order_is_invariant_violation(tmp_path):
    with pytest.raises(InvariantViolation, match="order"):
        load_catalog(_write_catalog(tmp_path, [_a1_entry(weyl_order=4)]))


def test_wrong_dim_space_is_invariant_violation(tmp_path):
    with pytest.raises(InvariantViolation, match="dim_space"):
        load_catalog(_write_catalog(tmp_path, [_a1_entry(dim_space=9)]))


def test_non_integral_chords_rejected(tmp_path):
    with pytest.raises(InvariantViolation, match="integral"):
        load_catalog(_write_catalog(tmp_path, [_a1_entry(lattice_basis=[["1/3"]])]))


def test_non_integral_chords_name_the_entry_root_and_basis_vector(tmp_path):
    with pytest.raises(InvariantViolation) as err:
        load_catalog(_write_catalog(tmp_path, [_a1_entry(lattice_basis=[["1/3"]])]))
    assert str(err.value) == (
        "entry 'test-a1': 2*alpha(b) = -4/3 is not integral at root alpha=(-1)"
        " and basis vector b=(1/3)"
    )


def test_catalog_schema_is_a_valid_schema():
    jsonschema.Draft202012Validator.check_schema(CATALOG_SCHEMA)


def _invalid_documents():
    no_gram = _a1_entry()
    del no_gram["gram"]
    yield {"schema": CATALOG_SCHEMA_ID}
    yield {"schema": "other/v1", "entries": [_a1_entry()]}
    yield {"schema": CATALOG_SCHEMA_ID, "entries": []}
    yield {"schema": CATALOG_SCHEMA_ID, "entries": [no_gram]}
    yield {"schema": CATALOG_SCHEMA_ID, "entries": [_a1_entry(gram=[[2.5]])]}
    yield {"schema": CATALOG_SCHEMA_ID, "entries": [_a1_entry(kind="torus", dim_lambda=0)]}
    yield {"schema": CATALOG_SCHEMA_ID, "entries": [_a1_entry(orbits=[{"seed": [1], "mult": 0}])]}
    yield [1, 2]


@pytest.mark.parametrize("doc", list(_invalid_documents()))
def test_schema_errors_match_jsonschema_validate(tmp_path, doc):
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(doc, CATALOG_SCHEMA)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load_catalog(str(path))
    assert str(err.value) == (
        f"catalog failed schema validation at {ref.value.json_path}: {ref.value.message}"
    )


def test_unstable_lattice_rejected(tmp_path):
    entry = _a1_entry(
        name="bad-lattice",
        cartan_type={"family": "A", "rank": 2},
        gram=[[2, -1], [-1, 2]],
        orbits=[{"seed": [1, 0], "mult": 2}, {"seed": [0, 1], "mult": 2}],
        lattice_basis=[[1, 0], [0, 2]],
        base_point=[1, 1],
        dim_lambda=6,
    )
    from rootquilt import LatticeNotStable

    with pytest.raises(LatticeNotStable):
        load_catalog(_write_catalog(tmp_path, [entry]))


def test_conflicting_orbit_multiplicities(tmp_path):
    entry = _a1_entry(
        name="conflict",
        cartan_type={"family": "A", "rank": 2},
        gram=[[2, -1], [-1, 2]],
        orbits=[{"seed": [1, 0], "mult": 1}, {"seed": [0, 1], "mult": 2}],
        lattice_basis=[[1, 0], [0, 1]],
        base_point=[1, 1],
        dim_lambda=4,
    )
    message = r"conflicting multiplicities on orbit of \(0, 1\)$"
    with pytest.raises(InvariantViolation, match=message):
        load_catalog(_write_catalog(tmp_path, [entry]))


def _a2_entry(**overrides):
    entry = _a1_entry(
        name="test-a2",
        cartan_type={"family": "A", "rank": 2},
        gram=[[2, -1], [-1, 2]],
        orbits=[{"seed": [1, 0], "mult": 2}, {"seed": [0, 1], "mult": 2}],
        lattice_basis=[[1, 0], [0, 1]],
        base_point=[1, 1],
        dim_lambda=6,
    )
    entry.update(overrides)
    return entry


def test_single_seed_a2_names_the_fix(tmp_path):
    # one length orbit, but a lone seed closes only to {(1,0), (-1,0)}
    path = _write_catalog(tmp_path, [_a2_entry(orbits=[{"seed": [1, 0], "mult": 2}])])
    with pytest.raises(InvariantViolation, match="span 1 of 2 dimensions; seed the simple roots"):
        load_catalog(path)
    path = _write_catalog(tmp_path, [_a2_entry()])
    assert len(load_catalog(path)[0].system.roots) == 6


def test_wrong_length_seed_is_schema_error(tmp_path):
    path = _write_catalog(tmp_path, [_a2_entry(orbits=[{"seed": [1, 0, 0], "mult": 2}])])
    with pytest.raises(SchemaError, match="needs 2 coordinates"):
        load_catalog(path)


def test_zero_length_seed_is_named(tmp_path):
    # symmetric but indefinite: (1, 1) has squared length 1 - 1 = 0
    entry = _a2_entry(gram=[[1, 0], [0, -1]], orbits=[{"seed": [1, 1], "mult": 2}])
    with pytest.raises(InvariantViolation, match=r"seed \(1, 1\) has zero squared length$"):
        load_catalog(_write_catalog(tmp_path, [entry]))


# Symmetric and indefinite, with seeds of nonzero squared length (1 and -1):
# reflecting them grows the roots' entries without bound, so closing the
# orbits would never return.
INDEFINITE = {"gram": [[1, 0], [0, -2]], "seeds": [[1, 0], [1, 1]]}


def test_indefinite_gram_is_rejected_before_closing(tmp_path):
    orbits = [{"seed": s, "mult": 2} for s in INDEFINITE["seeds"]]
    entry = _a2_entry(name="indefinite", gram=INDEFINITE["gram"], orbits=orbits)
    with pytest.raises(InvariantViolation) as err:
        load_catalog(_write_catalog(tmp_path, [entry]))
    assert str(err.value) == "entry 'indefinite': gram matrix is not positive definite"
    gram = tuple(tuple(F(x) for x in row) for row in INDEFINITE["gram"])
    seeds = [(tuple(F(x) for x in s), 2) for s in INDEFINITE["seeds"]]
    with pytest.raises(InvariantViolation, match="^gram matrix is not positive definite$"):
        close_orbits(gram, seeds, 6)


def test_close_orbits_stops_past_the_root_count():
    # the A2 roots close on 6; a bound of 5 stops the walk at the sixth root
    gram, seeds, count = SEEDED["group-a2"]
    assert len(close_orbits(gram, seeds, count)) == count == 6
    with pytest.raises(
        InvariantViolation, match="^the seeds reflect to more than 5 roots, the count of the declared type$"
    ):
        close_orbits(gram, seeds, 5)


def test_duplicate_names_rejected(tmp_path):
    with pytest.raises(SchemaError, match="duplicate"):
        load_catalog(_write_catalog(tmp_path, [_a1_entry(), _a1_entry()]))


def test_rational_strings_accepted(tmp_path):
    entries = load_catalog(_write_catalog(tmp_path, [_a1_entry(gram=[["2"]])]))
    assert entries[0].system.gram == ((F(2),),)


def _tiny_report():
    report = Report("demo", "index", {"radius": "0"})
    report.add_row("index", "value", 18)
    report.add_row("index", "tau", F(1, 8))
    report.add_row("index", "residual", 1.234567890123456e-9)
    report.add_check("index", True, "ok")
    return report


def test_emit_json_round_trips_schema():
    data = json.loads(emit(_tiny_report(), "json"))
    jsonschema.validate(data, REPORT_SCHEMA)
    assert data["passed"] is True
    values = {r["item"]: r["value"] for r in data["rows"]}
    assert values["tau"] == "1/8"
    assert values["residual"] == "1.23456789012e-09"


def test_emit_deterministic_bytes():
    assert emit(_tiny_report(), "json") == emit(_tiny_report(), "json")
    assert emit(_tiny_report(), "tsv") == emit(_tiny_report(), "tsv")


def test_emit_tsv_shape():
    lines = emit(_tiny_report(), "tsv").decode().strip().split("\n")
    assert lines[0] == "section\titem\tvalue"
    assert len(lines) == 1 + 3


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit(_tiny_report(), "xml")


# The orbit closure against its oracle: the fixed-point rounds and per-seed
# orbit walk that close_orbits ran before it became one worklist pass, kept
# verbatim, with the reflection helper of that time that took the Gram matrix.
def _old_reflect(gram, alpha, v):
    g_alpha = mat_vec(gram, alpha)
    c = 2 * F(dot(g_alpha, v)) / dot(g_alpha, alpha)
    return tuple(x - c * a for x, a in zip(v, alpha))


def _old_close_orbits(gram, seeds):
    reflect = _old_reflect
    roots: set = set()
    for s, _ in seeds:
        if all(x == 0 for x in s):
            raise InvariantViolation("zero vector cannot seed a root orbit")
        if gram_pair(gram, s, s) == 0:  # reflections keep lengths, so seeds cover every root
            raise InvariantViolation(f"seed {s} has zero squared length")
        roots.add(s)
        roots.add(tuple(-x for x in s))
    changed = True
    while changed:
        changed = False
        snapshot = sorted(roots)
        for a in snapshot:
            for b in snapshot:
                img = reflect(gram, a, b)
                if img not in roots:
                    roots.add(img)
                    changed = True
        if len(roots) > 10_000:
            raise InvariantViolation("orbit closure did not stabilize")
    mult: dict = {}
    for seed, m in seeds:
        orbit = {seed, tuple(-x for x in seed)}
        frontier = list(orbit)
        while frontier:
            b = frontier.pop()
            for a in roots:
                img = reflect(gram, a, b)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        for rt in orbit:
            if rt in mult and mult[rt] != m:
                raise InvariantViolation(f"conflicting multiplicities on orbit of {seed}")
            mult[rt] = m
    missing = roots - set(mult)
    if missing:
        raise InvariantViolation(f"{len(missing)} roots carry no declared multiplicity")
    return mult


def _seeded_systems():
    """(gram, seeds, root count of the declared type) of every built-in entry,
    every extra entry and F4, by name."""
    repo = Path(__file__).resolve().parent.parent
    texts = [
        resources.files("rootquilt").joinpath("data/catalog.json").read_text(),
        (repo / "tests" / "data" / "extra_catalog.json").read_text(),
        (repo / "bench" / "data" / "f4.json").read_text(),
    ]
    systems = {}
    for text in texts:
        for raw in json.loads(text)["entries"]:
            gram = tuple(tuple(parse_rational(x) for x in row) for row in raw["gram"])
            seeds = [
                (tuple(parse_rational(x) for x in o["seed"]), o["mult"]) for o in raw["orbits"]
            ]
            cartan = raw["cartan_type"]
            systems[raw["name"]] = gram, seeds, catalog._ROOT_COUNT[cartan["family"]](cartan["rank"])
    return systems


SEEDED = _seeded_systems()


def test_seeded_systems_cover_every_catalog():
    assert len(SEEDED) == 6 + 4 + 1


# Plus B2 seeded so that the closure is complete only if each root found late
# is reflected across the roots found before it, not just they across it.
ORACLE_CASES = {
    **SEEDED,
    "spin5-b2-late-long": (
        ((F(1), F(0)), (F(0), F(1))),
        [((F(0), F(1)), 2), ((F(1), F(0)), 2), ((F(-1), F(1)), 1)],
        8,
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_close_orbits_matches_oracle(name):
    gram, seeds, count = ORACLE_CASES[name]
    assert close_orbits(gram, seeds, count) == _old_close_orbits(gram, seeds)


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_close_orbits_matches_oracle_on_drawn_seeds(name):
    gram, seeds, count = SEEDED[name]
    roots = sorted(close_orbits(gram, seeds, count))

    # the old closure costs about 1.5 s on all of F4, so it gets fewer draws
    @settings(max_examples=6 if name == "fi-f4" else 40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(roots), st.integers(1, 3)), min_size=1, max_size=4))
    def check(drawn):
        try:
            expected = _old_close_orbits(gram, drawn)
        except InvariantViolation:
            with pytest.raises(InvariantViolation):
                close_orbits(gram, drawn, count)
        else:
            assert close_orbits(gram, drawn, count) == expected

    check()


def test_close_orbits_reflects_each_ordered_pair_of_f4_roots_once(monkeypatch):
    calls = []
    reflect = catalog.reflect

    def counting(*args):
        calls.append(args)
        return reflect(*args)

    monkeypatch.setattr(catalog, "reflect", counting)
    assert len(close_orbits(*SEEDED["fi-f4"])) == 48
    assert len(calls) <= 48 * 48


# -- the schema walker against jsonschema -------------------------------------

REPO = Path(__file__).resolve().parent.parent
_VALIDATOR = jsonschema.Draft202012Validator(CATALOG_SCHEMA)
_SWAPS = [True, 1.0, 2.5, "", [], {}, 0, -1]


def _reference_documents():
    yield json.loads(resources.files("rootquilt").joinpath("data/catalog.json").read_text())
    yield json.loads((REPO / "tests" / "data" / "extra_catalog.json").read_text())
    yield json.loads((REPO / "bench" / "data" / "f4.json").read_text())


@pytest.mark.parametrize("doc", [*_reference_documents(), *_invalid_documents()])
def test_conforms_agrees_with_jsonschema(doc):
    assert catalog._conforms(doc, CATALOG_SCHEMA) == _VALIDATOR.is_valid(doc)


def _paths(node, prefix=()):
    """Every place in a JSON document, as the keys and indices leading to it."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, (*prefix, key))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_conforms_agrees_with_jsonschema_on_mutations(data):
    # the extra catalog sets every optional key, so each subschema is reachable
    doc = json.loads((REPO / "tests" / "data" / "extra_catalog.json").read_text())
    doc["entries"] = doc["entries"][:2]
    for _ in range(data.draw(st.integers(1, 3))):
        places = [p for p in _paths(doc) if p]
        if not places:  # every key deleted
            break
        path = data.draw(st.sampled_from(places))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(st.sampled_from(_SWAPS))
    assert catalog._conforms(doc, CATALOG_SCHEMA) == _VALIDATOR.is_valid(doc)


@pytest.mark.parametrize(
    "doc, schema, valid",
    [
        (True, {"type": "integer"}, False),
        (1.0, {"type": "integer"}, True),
        (True, {"type": "number"}, False),
        (True, {"const": 1}, False),
        (1, {"enum": [True]}, False),
        (1.0, {"const": 1}, True),
        ([1], {"const": [True]}, False),
        ({"a": 1}, {"const": {"a": 1.0}}, True),
        (False, {"minimum": 1}, True),
        ("", {"minItems": 1, "minLength": 1}, False),
    ],
)
def test_conforms_follows_json_types(doc, schema, valid):
    assert catalog._conforms(doc, schema) is valid
    assert jsonschema.Draft202012Validator(schema).is_valid(doc) is valid


# _conforms walks only catalog._KEYWORDS and ignores any other keyword, so a
# keyword the schema uses at any node must be one of them.
def _schema_nodes(schema):
    """Every subschema the walker can reach, ``schema`` itself first."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schema_nodes(sub)
    if "items" in schema:
        yield from _schema_nodes(schema["items"])


def _unwalked_keywords(schema):
    return sorted({key for node in _schema_nodes(schema) for key in node} - catalog._KEYWORDS)


def test_catalog_schema_uses_only_walked_keywords():
    assert _unwalked_keywords(CATALOG_SCHEMA) == []


@pytest.mark.parametrize(
    "schema",
    [
        {"maxItems": 1},
        {"type": "object", "additionalProperties": False},
        {"properties": {"a": {"pattern": "x"}}},
        {"items": {"properties": {"a": {"uniqueItems": True}}}},
    ],
)
def test_schema_walk_finds_unknown_keywords(schema):
    assert _unwalked_keywords(schema) != []


# -- one closure proof per load -----------------------------------------------


def test_get_entry_reflects_each_ordered_pair_of_f4_roots_once(monkeypatch):
    from rootquilt import roots

    calls = {"catalog": 0, "roots": 0}

    def counting(module):
        original = module.reflect

        def wrapper(*args):
            calls[module.__name__.rsplit(".", 1)[1]] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(catalog, "reflect", counting(catalog))
    monkeypatch.setattr(roots, "reflect", counting(roots))
    entry = get_entry("fi-f4", str(REPO / "bench" / "data" / "f4.json"))
    assert len(entry.system.roots) == 48
    assert calls["catalog"] == 48 * 48  # close_orbits: the one closure proof
    # the system's own reflections build only the simple generators' root
    # permutations; the closure is not checked a second time
    assert calls["roots"] == 4 * 48
