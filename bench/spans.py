"""Tracing from outside the program: spans around calls into each module.

``Tracer.install`` rebinds the public functions and methods listed in
``TIMED`` and ``COUNTED`` to wrappers, under every name a ``rootquilt``
module holds them by, so calls made through ``from .x import f`` are seen
too.  A timed wrapper records one span (name, start, end, parent span,
command index) in flat arrays; a counted wrapper only increments a counter,
because the ``linalg`` helpers are called millions of times.  The spans stay
in memory and ``dump`` writes them out when the pass ends.

``layer_metrics`` turns one dump into the per-layer metrics.  A span's self
time is its duration minus the durations of its direct children; a layer's
self time is the sum over its spans.  Times are integer nanoseconds, so a
self time is exact and never negative.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, object) -> public callables timed as spans named "<module>.<callable>".
TIMED = {
    ("catalog", None): ("load_catalog", "get_entry"),
    ("roots", "RestrictedRootSystem"): (
        "__init__", "weyl_group", "chamber_of", "chamber_positive_system",
    ),
    ("lattice", "Lattice"): ("points", "check_weyl_stable"),
    ("lattice", None): ("validate_generic", "canonical_shift", "chords", "generators"),
    ("indices", None): (
        "monotone_data", "relative_degree", "quilt_index", "classify", "ugly_index",
        "filtration_weight", "zero_index_implication", "capping_maslov", "capping_area",
        "morse_index", "poincare_polynomial", "parity_report",
    ),
    ("ring", None): (
        "star_unit_sector", "leading_term", "triangularity_certificate",
        "r_module_basis_check", "finitely_generated_witness",
    ),
    ("triangle", None): (
        "build_triple", "plane_model", "solve_triangle", "verify_hull",
        "boundary_deviation", "symmetry_residual",
    ),
    ("suite", None): ("run_suite", "build_shift", "emit"),
    ("cli", None): ("main",),
}
COUNTED = {"linalg": ("gram_pair", "mat_mul", "mat_vec")}
POOL_SPAN = "suite.pool"
LAYERS = ("catalog", "roots", "linalg", "lattice", "indices", "ring", "triangle", "suite", "cli")


class Tracer:
    """In-memory span recorder for one pass in one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter[str] = Counter()
        self.current_command = -1
        self.enabled = True
        self._stack: list[int] = []
        self._degrees: set = set()

    # -- recording ---------------------------------------------------

    def open(self, name: str) -> int:
        ix = self._ids.get(name)
        if ix is None:
            ix = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.command.append(self.current_command)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def timed(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def disable(self) -> None:
        self.enabled = False

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Rebind the traced callables of the imported ``rootquilt`` package."""
        modules = [m for n, m in sys.modules.items() if n == "rootquilt" or n.startswith("rootquilt.")]
        hooks = self._hooks()
        for (mod_name, cls_name), attrs in TIMED.items():
            module = sys.modules[f"rootquilt.{mod_name}"]
            owner = module if cls_name is None else getattr(module, cls_name)
            for attr in attrs:
                original = getattr(owner, attr)
                wrapper = self.timed(f"{mod_name}.{attr}", original, hooks.get(f"{mod_name}.{attr}"))
                _rebind(modules, owner, attr, original, wrapper, is_class=cls_name is not None)
        for mod_name, attrs in COUNTED.items():
            module = sys.modules[f"rootquilt.{mod_name}"]
            for attr in attrs:
                original = getattr(module, attr)
                _rebind(modules, module, attr, original, self.counted(f"{mod_name}.{attr}", original), False)
        suite = sys.modules["rootquilt.suite"]
        suite.ProcessPoolExecutor = _traced_pool(self, suite.ProcessPoolExecutor)
        # Pool workers fork from this process; they run untraced.
        os.register_at_fork(after_in_child=self.disable)

    def _hooks(self) -> dict:
        counts = self.counts

        def points(args, result):
            counts["lattice.window_points"] += len(result)

        def shift_ok(args, result):
            counts["lattice.validate_generic_ok"] += 1

        def degree(args, result):
            w, q, shift = args
            self._degrees.add((self.current_command, id(w), q, shift.a))

        def cert(args, result):
            counts["ring.cert_rows"] += len(result.rows)

        def suite_rows(args, result):
            counts["suite.report_rows"] += len(result.rows)

        def report_bytes(args, result):
            counts["suite.report_bytes"] += len(result)

        return {
            "lattice.points": points,
            "lattice.validate_generic": shift_ok,
            "indices.relative_degree": degree,
            "ring.triangularity_certificate": cert,
            "suite.run_suite": suite_rows,
            "suite.emit": report_bytes,
        }

    # -- output ----------------------------------------------------------

    def dump(self, path: str, pass_id: int) -> None:
        counts = dict(self.counts)
        counts["indices.relative_degree_distinct"] = len(self._degrees)
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            command=np.frombuffer(self.command, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            meta=np.array(json.dumps({"names": self.names, "counts": counts, "pass_id": pass_id})),
        )


def _rebind(modules, owner, attr, original, wrapper, is_class: bool) -> None:
    setattr(owner, attr, wrapper)
    if is_class:
        return
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _traced_pool(tracer: Tracer, base):
    """The suite's process pool as one span; the tasks inside are only counted."""

    class TracedPool(base):
        def __enter__(self):
            self._span = tracer.open(POOL_SPAN) if tracer.enabled else None
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                if self._span is not None:
                    tracer.close(self._span)

        def map(self, fn, *iterables, **kwargs):
            chunks = list(iterables[0])
            tracer.counts["suite.pool_tasks"] += sum(len(c) for c in chunks)
            return super().map(fn, chunks, *iterables[1:], **kwargs)

    return TracedPool


# -- analysis ------------------------------------------------------------------


class Spans:
    """One dumped pass: flat span arrays plus the name table and counters."""

    def __init__(self, name, parent, command, start, end, names, counts, pass_id=0):
        self.name = np.asarray(name, dtype=np.int32)
        self.parent = np.asarray(parent, dtype=np.int32)
        self.command = np.asarray(command, dtype=np.int32)
        self.start = np.asarray(start, dtype=np.int64)
        self.end = np.asarray(end, dtype=np.int64)
        self.names = list(names)
        self.counts = dict(counts)
        self.pass_id = pass_id

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            return cls(data["name"], data["parent"], data["command"], data["start"], data["end"],
                       meta["names"], meta["counts"], meta["pass_id"])

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        children = np.zeros(len(self.name), dtype=np.int64)
        nested = self.parent >= 0
        np.add.at(children, self.parent[nested], self.duration[nested])
        return self.duration - children

    def ids(self, *names: str) -> set[int]:
        return {self.names.index(n) for n in names if n in self.names}

    def calls(self, name: str) -> int:
        return int(np.isin(self.name, list(self.ids(name))).sum())

    def outer_s(self, *names: str) -> float:
        """Seconds inside any of ``names``, counting a span nested in another of them once."""
        group = list(self.ids(*names))
        if not group:
            return 0.0
        member = np.isin(self.name, group)
        idx = np.flatnonzero(member)
        covered = np.zeros(len(idx), dtype=bool)
        ancestor = self.parent[idx]
        live = ancestor >= 0
        while live.any():
            covered[live] |= member[ancestor[live]]
            ancestor[live] = self.parent[ancestor[live]]
            live = ancestor >= 0
        return int(self.duration[idx[~covered]].sum()) / 1e9

    def layer_self_s(self, layer: str, exclude: tuple[str, ...] = ()) -> float:
        skip = self.ids(*exclude)
        in_layer = np.array(
            [n.split(".", 1)[0] == layer and i not in skip for i, n in enumerate(self.names)], dtype=bool
        )
        if not in_layer.any():
            return 0.0
        return int(self.self_ns()[in_layer[self.name]].sum()) / 1e9


def layer_metrics(spans: Spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    c = spans.counts
    degree_calls = spans.calls("indices.relative_degree")
    distinct = c.get("indices.relative_degree_distinct", 0)
    validate_calls = spans.calls("lattice.validate_generic")
    m = {
        "catalog.load_s": spans.outer_s("catalog.load_catalog"),
        "catalog.load_calls": spans.calls("catalog.load_catalog"),
        "catalog.self_s": spans.layer_self_s("catalog"),
        "roots.system_init_s": spans.outer_s("roots.__init__"),
        "roots.weyl_group_s": spans.outer_s("roots.weyl_group"),
        "roots.chamber_of_calls": spans.calls("roots.chamber_of"),
        "roots.chamber_of_s": spans.outer_s("roots.chamber_of"),
        "roots.chamber_positive_system_calls": spans.calls("roots.chamber_positive_system"),
        "roots.chamber_positive_system_s": spans.outer_s("roots.chamber_positive_system"),
        "roots.self_s": spans.layer_self_s("roots"),
        "linalg.gram_pair_calls": c.get("linalg.gram_pair", 0),
        "linalg.mat_mul_calls": c.get("linalg.mat_mul", 0),
        "linalg.mat_vec_calls": c.get("linalg.mat_vec", 0),
        "lattice.points_calls": spans.calls("lattice.points"),
        "lattice.points_s": spans.outer_s("lattice.points"),
        "lattice.window_points": c.get("lattice.window_points", 0),
        "lattice.validate_generic_calls": validate_calls,
        "lattice.shift_s": spans.outer_s("lattice.canonical_shift", "lattice.validate_generic"),
        "lattice.shift_yield": c.get("lattice.validate_generic_ok", 0) / validate_calls if validate_calls else 0.0,
        "lattice.check_weyl_stable_s": spans.outer_s("lattice.check_weyl_stable"),
        "lattice.self_s": spans.layer_self_s("lattice"),
        "indices.relative_degree_calls": degree_calls,
        "indices.relative_degree_distinct": distinct,
        "indices.degree_reuse": distinct / degree_calls if degree_calls else 0.0,
        "indices.implication_calls": spans.calls("indices.zero_index_implication"),
        "indices.implication_s": spans.outer_s("indices.zero_index_implication"),
        "indices.classify_calls": spans.calls("indices.classify"),
        "indices.bad_ugly_s": spans.outer_s("indices.classify", "indices.ugly_index", "indices.quilt_index"),
        "indices.filtration_weight_calls": spans.calls("indices.filtration_weight"),
        "indices.filtration_weight_s": spans.outer_s("indices.filtration_weight"),
        "indices.parity_s": spans.outer_s("indices.parity_report"),
        "indices.poincare_s": spans.outer_s("indices.poincare_polynomial"),
        "indices.self_s": spans.layer_self_s("indices"),
        "ring.triangularity_calls": spans.calls("ring.triangularity_certificate"),
        "ring.triangularity_s": spans.outer_s("ring.triangularity_certificate"),
        "ring.basis_check_s": spans.outer_s("ring.r_module_basis_check"),
        "ring.fg_witness_s": spans.outer_s("ring.finitely_generated_witness"),
        "ring.cert_rows": c.get("ring.cert_rows", 0),
        "ring.self_s": spans.layer_self_s("ring"),
        "triangle.solve_calls": spans.calls("triangle.solve_triangle"),
        "triangle.solve_s": spans.outer_s("triangle.solve_triangle"),
        "triangle.build_triple_s": spans.outer_s("triangle.build_triple"),
        "triangle.hull_s": spans.outer_s("triangle.verify_hull"),
        "triangle.boundary_s": spans.outer_s("triangle.boundary_deviation"),
        "triangle.self_s": spans.layer_self_s("triangle"),
        "suite.run_s": spans.outer_s("suite.run_suite"),
        "suite.self_s": spans.layer_self_s("suite", exclude=(POOL_SPAN,)),
        "suite.pool_s": spans.outer_s(POOL_SPAN),
        "suite.pool_tasks": c.get("suite.pool_tasks", 0),
        "suite.report_rows": c.get("suite.report_rows", 0),
        "suite.emit_s": spans.outer_s("suite.emit"),
        "suite.report_bytes": c.get("suite.report_bytes", 0),
        "cli.main_s": spans.outer_s("cli.main"),
        "cli.self_s": spans.layer_self_s("cli"),
    }
    return {k: (v, "s" if k.endswith("_s") else "ratio" if k.endswith(("_yield", "_reuse")) else "count")
            for k, v in m.items()}


def layer_shares(spans: Spans) -> dict[str, float]:
    """Self seconds per layer, with the pool span as its own entry."""
    shares = {layer: spans.layer_self_s(layer) for layer in LAYERS if layer not in ("linalg", "suite")}
    shares["suite"] = spans.layer_self_s("suite", exclude=(POOL_SPAN,))
    shares["suite.pool"] = spans.outer_s(POOL_SPAN)
    return shares
