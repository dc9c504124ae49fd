"""The benchmark workloads: which CLI commands one pass runs, and in what order.

Every workload is a closed loop with one client: a pass runs its commands
back to back in one fresh interpreter, each command starting only after the
previous one returned.  The seed only permutes the command order within a
pass; the commands themselves, and so the report bytes, never change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

F4_CATALOG = "bench/data/f4.json"  # relative to the checkout root

CATALOG_PAIRS = ("group-a1", "aii-a1", "sphere-a1", "group-a2", "ai-a2", "eiv-a2")
RANK2_PAIRS = ("group-a2", "ai-a2", "eiv-a2")
RANK1_PAIRS = ("group-a1", "aii-a1", "sphere-a1")

# Every (Q, W) in the radius-3 window of the rank-1 pairs: 30 solves per pass.
TRIANGLE_ARGS = tuple(f"--triangle={q}:{w}" for q in range(-2, 3) for w in ("e", "1"))


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    catalogs: tuple[str | None, ...]  # loaded during set-up; None is the built-in one


def _verify(pair: str, *extra: str) -> tuple[str, ...]:
    return ("verify", "--pair", pair, "--radius", "3", *extra)


WORKLOADS = {
    w.name: w
    for w in (
        # The default user run; the quadratic implication sweep dominates.
        Workload(
            "verify-catalog",
            tuple(_verify(p, "--jobs", "1") for p in CATALOG_PAIRS),
            (None,),
        ),
        # The only workload that reaches the process pool.
        Workload(
            "verify-jobs2",
            tuple(_verify(p, "--jobs", "2") for p in RANK2_PAIRS),
            (None,),
        ),
        # The large group: catalog validation, Weyl enumeration and 1152
        # filtration weights, without the quadratic sweep.
        Workload(
            "certify-f4",
            (("certify", "--catalog", F4_CATALOG, "--pair", "fi-f4", "--radius", "0"),),
            (F4_CATALOG,),
        ),
        # The floating-point triangle layer works, the exact sweeps almost not.
        Workload(
            "triangle-rank1",
            tuple(_verify(p, *TRIANGLE_ARGS) for p in RANK1_PAIRS),
            (None,),
        ),
    )
}


def pass_commands(workload: Workload, seed: int, pass_index: int) -> list[list[str]]:
    """The workload's commands in the order the seed gives pass ``pass_index``."""
    commands = [list(c) for c in workload.commands]
    random.Random(f"{seed}/{pass_index}").shuffle(commands)
    return commands


def all_commands() -> list[tuple[str, ...]]:
    """Every distinct command of every workload, in a fixed order."""
    seen: dict[tuple[str, ...], None] = {}
    for workload in WORKLOADS.values():
        for command in workload.commands:
            seen.setdefault(command, None)
    return list(seen)
