"""Catalog of symmetric-pair data: file format, loading, validation.

The catalog is data, not code.  An entry carries a Gram matrix, orbit seeds
with multiplicities, a lattice basis, and a base regular point, all as exact
rationals (integers or "p/q" strings).  Roots are produced by closing the
seeds under reflections, so adding a pair needs no rebuild; each root found
takes the multiplicity of the root it is the reflection of, so seeds whose
Weyl orbits meet must agree.  Every structural assumption is re-validated on
load, and a file that cannot be read or parsed is a ``SchemaError``.

``CATALOG_SCHEMA`` is the one description of the file format.  A document is
checked against it by ``_conforms``, a walker over the few JSON Schema
keywords the schema uses; ``jsonschema`` is imported only when a document
fails, to word the error exactly as its ``best_match`` does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .errors import InvariantViolation, RootQuiltError, SchemaError
from .lattice import Lattice, weighted_root_sum
from .linalg import (
    Mat, Vec, _vec_text, gram_pair, is_symmetric, leading_minors_positive, mat_vec, matrix_rank,
    parse_rational, reflect,
)
from .roots import RestrictedRootSystem

CATALOG_SCHEMA_ID = "restricted-pair-catalog/v1"

_RATIONAL = {"type": ["string", "integer"]}
_VECTOR = {"type": "array", "items": _RATIONAL, "minItems": 1}

CATALOG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "entries"],
    "properties": {
        "schema": {"const": CATALOG_SCHEMA_ID},
        "entries": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": [
                    "name",
                    "kind",
                    "cartan_type",
                    "gram",
                    "orbits",
                    "lattice_basis",
                    "base_point",
                    "dim_lambda",
                ],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "kind": {"enum": ["group", "symmetric"]},
                    "cartan_type": {
                        "type": "object",
                        "required": ["family", "rank"],
                        "properties": {
                            "family": {"enum": ["A", "B", "C", "D", "BC", "F", "G"]},
                            "rank": {"type": "integer", "minimum": 1},
                        },
                    },
                    "gram": {"type": "array", "items": _VECTOR, "minItems": 1},
                    "orbits": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["seed", "mult"],
                            "properties": {
                                "seed": _VECTOR,
                                "mult": {"type": "integer", "minimum": 1},
                            },
                        },
                    },
                    "lattice_basis": {"type": "array", "items": _VECTOR, "minItems": 1},
                    "base_point": _VECTOR,
                    "dim_lambda": {"type": "integer", "minimum": 1},
                    "dim_space": {"type": "integer", "minimum": 1},
                    "weyl_order": {"type": "integer", "minimum": 1},
                    "provenance": {"type": "string"},
                },
            },
        },
    },
}

_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    # JSON has one number type: 1.0 is an integer, a boolean is not
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}
_KEYWORDS = frozenset(
    ("$schema", "type", "const", "enum", "required", "properties", "items", "minItems",
     "minLength", "minimum")
)


def _equal(a, b) -> bool:
    """JSON equality: True is not 1, and 1 is 1.0, inside arrays and objects too."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _conforms(doc, schema: dict) -> bool:
    """Whether ``doc`` is valid under ``schema``, as Draft 2020-12 decides it.

    Walks only the keywords in ``_KEYWORDS`` and ignores any other.  That
    ``CATALOG_SCHEMA`` uses no other keyword at any node is a property of the
    constant, so a test checks it once instead of every call at every node.
    """
    if "type" in schema:
        types = schema["type"]
        if not any(_TYPES[t](doc) for t in ([types] if isinstance(types, str) else types)):
            return False
    if "const" in schema and not _equal(doc, schema["const"]):
        return False
    if "enum" in schema and not any(_equal(doc, e) for e in schema["enum"]):
        return False
    if isinstance(doc, dict):
        if any(key not in doc for key in schema.get("required", ())):
            return False
        for key, sub in schema.get("properties", {}).items():
            if key in doc and not _conforms(doc[key], sub):
                return False
    if isinstance(doc, list):
        if len(doc) < schema.get("minItems", 0):
            return False
        if "items" in schema and not all(_conforms(x, schema["items"]) for x in doc):
            return False
    if isinstance(doc, str) and len(doc) < schema.get("minLength", 0):
        return False
    if "minimum" in schema and _TYPES["number"](doc) and doc < schema["minimum"]:
        return False
    return True

_ROOT_COUNT = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "BC": lambda r: 2 * r * (r + 1),
    "F": lambda r: 48,
    "G": lambda r: 12,
}


@dataclass
class CatalogEntry:
    name: str
    kind: str
    family: str
    rank: int
    system: RestrictedRootSystem
    lattice: Lattice
    dim_lambda: int
    dim_space: int | None
    weyl_order: int | None
    provenance: str


def close_orbits(gram: Mat, seeds: list[tuple[Vec, int]], root_count: int) -> dict[Vec, int]:
    """Close seed roots under all reflections and assign orbit multiplicities.

    One worklist pass reflects every ordered pair of roots once, through the
    covector gram * root computed once per root found.  An image takes the
    multiplicity and seed of the root it came from; reflections keep roots
    in their Weyl orbit, so a root reached with two multiplicities means two
    declared orbits meet, and raises ``InvariantViolation``.  So does a Gram
    matrix that is not positive definite, checked after the seeds: under an
    indefinite form the reflected roots grow without bound and never close.
    Mistyped seeds may never close either, so the closure stops at the
    first root past ``root_count`` (the declared type's), or past the seed
    roots if more: those then fail later, with a more precise message.
    """
    for s, _ in seeds:
        if all(x == 0 for x in s):
            raise InvariantViolation("zero vector cannot seed a root orbit")
        if gram_pair(gram, s, s) == 0:  # reflections keep lengths, so seeds cover every root
            raise InvariantViolation(f"seed {_vec_text(s)} has zero squared length")
    if not leading_minors_positive(gram):
        raise InvariantViolation("gram matrix is not positive definite")
    # roots[k] came from the orbit of seed_of[k] with multiplicity mults[k];
    # index is the one lookup by vector, so each image is hashed once
    index: dict[Vec, int] = {}
    roots: list[Vec] = []
    covectors: list[Vec] = []
    mults: list[int] = []
    seed_of: list[Vec] = []
    cap = max(root_count, 2 * len(seeds))

    def found(root: Vec, m: int, seed: Vec) -> None:
        k = index.setdefault(root, len(roots))
        if k == len(roots):
            if k == cap:
                raise InvariantViolation(
                    f"the seeds reflect to more than {root_count} roots, the count of the declared type"
                )
            roots.append(root)
            covectors.append(mat_vec(gram, root))
            mults.append(m)
            seed_of.append(seed)
        elif mults[k] != m:
            raise InvariantViolation(f"conflicting multiplicities on orbit of {_vec_text(seed)}")

    for s, m in seeds:
        found(s, m, s)
        found(tuple(-x for x in s), m, s)
    for i, a in enumerate(roots):  # the list grows while it is walked
        for j in range(i + 1):
            found(reflect(covectors[i], a, roots[j]), mults[j], seed_of[j])
            if j < i:
                found(reflect(covectors[j], roots[j], a), mults[i], seed_of[i])
    return dict(zip(roots, mults))


def _parse_vec(raw) -> Vec:
    return tuple(map(parse_rational, raw))


def _entry_from_raw(raw: dict) -> CatalogEntry:
    """Build and validate one entry; every error it raises starts with the entry's name."""
    try:
        return _build_entry(raw)
    except RootQuiltError as exc:
        exc.args = (f"entry {raw['name']!r}: {exc}",)
        raise


def _build_entry(raw: dict) -> CatalogEntry:
    name, family = raw["name"], raw["cartan_type"]["family"]
    # the schema admits integral floats such as 2.0; reports print the int
    rank = int(raw["cartan_type"]["rank"])
    dim_lambda = int(raw["dim_lambda"])
    dim_space = int(raw["dim_space"]) if "dim_space" in raw else None
    weyl_order = int(raw["weyl_order"]) if "weyl_order" in raw else None
    try:
        gram = tuple(map(_parse_vec, raw["gram"]))
        seeds = [(_parse_vec(o["seed"]), int(o["mult"])) for o in raw["orbits"]]
        basis = [_parse_vec(b) for b in raw["lattice_basis"]]
        base_point = _parse_vec(raw["base_point"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    if len(gram) != rank or any(len(row) != rank for row in gram):
        raise SchemaError(f"gram matrix is not {rank}x{rank}")
    if not is_symmetric(gram):
        raise SchemaError("gram matrix is not symmetric")
    if any(len(seed) != rank for seed, _ in seeds):
        raise SchemaError(f"every orbit seed needs {rank} coordinates")
    if len(base_point) != rank:
        raise SchemaError(f"the base point needs {rank} coordinates")
    expected_count = _ROOT_COUNT[family](rank)
    mult = close_orbits(gram, seeds, expected_count)
    spanned = matrix_rank(list(mult))
    if spanned != rank:
        raise InvariantViolation(
            f"the seeded roots span {spanned} of {rank} dimensions; "
            "seed the simple roots, because orbits close only under reflections "
            "in roots already found"
        )
    system = RestrictedRootSystem(gram, mult.keys(), mult, base_point, name=name, _closed=True)
    if len(system.roots) != expected_count:
        raise InvariantViolation(
            f"{len(system.roots)} roots, type {family}{rank} needs {expected_count}"
        )
    if system.dim_lambda() != dim_lambda:
        raise InvariantViolation(
            f"total multiplicity {system.dim_lambda()} differs from declared dimension {dim_lambda}"
        )
    if dim_space is not None and dim_space != rank + system.dim_lambda():
        raise InvariantViolation(f"dim_space {dim_space} != rank + total multiplicity")
    if weyl_order is not None and system.weyl_group().order != weyl_order:
        raise InvariantViolation(
            f"Weyl group order {system.weyl_group().order} differs from declared {weyl_order}"
        )
    rho = weighted_root_sum(system)
    if any(system.pairing(beta, rho) <= 0 for beta in system.simple_roots):
        raise InvariantViolation("weighted root sum is not strictly dominant")
    lattice = Lattice(system, basis)
    lattice.check_weyl_stable()
    return CatalogEntry(
        name=name,
        kind=raw["kind"],
        family=family,
        rank=rank,
        system=system,
        lattice=lattice,
        dim_lambda=dim_lambda,
        dim_space=dim_space,
        weyl_order=weyl_order,
        provenance=raw.get("provenance", ""),
    )


def _read_entries(path: str | None) -> list[dict]:
    """Parse a catalog file and validate the whole document against the schema.

    Returns the raw entries; building and validating each entry's system and
    lattice is left to the caller, which may need only one of them.
    """
    if path is None:
        text = resources.files("rootquilt").joinpath("data/catalog.json").read_text()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise SchemaError(f"cannot read catalog {path!r}: {reason}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"catalog is not valid JSON: line {exc.lineno}: {exc.msg}") from None
    if not _conforms(doc, CATALOG_SCHEMA):
        import jsonschema  # only to word the error: valid catalogs never load it

        error = jsonschema.exceptions.best_match(
            jsonschema.Draft202012Validator(CATALOG_SCHEMA).iter_errors(doc)
        )
        if error is not None:
            raise SchemaError(
                f"catalog failed schema validation at {error.json_path}: {error.message}"
            )
    names = [raw["name"] for raw in doc["entries"]]
    if len(set(names)) != len(names):
        raise SchemaError("duplicate entry names in catalog")
    return doc["entries"]


def load_catalog(path: str | None = None) -> list[CatalogEntry]:
    """Load and fully validate a catalog file (the built-in one by default)."""
    return [_entry_from_raw(raw) for raw in _read_entries(path)]


def get_entry(name: str, path: str | None = None) -> CatalogEntry:
    """Load one entry; the document is validated whole, only this entry is built."""
    for raw in _read_entries(path):
        if raw["name"] == name:
            return _entry_from_raw(raw)
    raise KeyError(f"no catalog entry named {name!r}")
