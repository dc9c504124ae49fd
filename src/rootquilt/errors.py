"""Exception hierarchy for the exact core and the catalog layer."""

from __future__ import annotations


class RootQuiltError(Exception):
    """Base class for all package errors."""


class UnknownRoot(RootQuiltError):
    """A vector was used as a root but is not in the root set."""


class BudgetExceeded(RootQuiltError):
    """An enumeration grew past its configured cap."""


class NotRegular(RootQuiltError):
    """A vector lies on at least one reflection wall."""

    def __init__(self, walls, message: str = ""):
        self.walls = tuple(walls)
        super().__init__(message or f"vector lies on {len(self.walls)} wall(s)")


class LatticeNotStable(RootQuiltError):
    """A Weyl image of a lattice point left the lattice (bad input data)."""


class FloorBoundary(RootQuiltError):
    """2*alpha(q + a) landed exactly on an integer."""

    def __init__(self, root, point, message: str = ""):
        self.root = root
        self.point = point
        super().__init__(message or "floor boundary hit")


class NotInChamber(RootQuiltError):
    """The shift is not inside the base chamber."""


class NotSmall(RootQuiltError):
    """Some |2*alpha(a)| >= 1/2 in small-in-chamber mode."""


class NotDominant(RootQuiltError):
    """The weighted root sum is not dominant (inconsistent input data)."""


class NotUgly(RootQuiltError):
    """The datum is not of the ugly class."""


class ModeMismatch(RootQuiltError):
    """An operation required a small-in-chamber shift."""


class WindowTooSmall(RootQuiltError):
    """No witness lattice point exists inside the window."""

    def __init__(self, uncovered, message: str = ""):
        self.uncovered = tuple(uncovered)
        super().__init__(message or f"{len(self.uncovered)} chamber(s) without witness")


class Degenerate(RootQuiltError):
    """The affine triple is degenerate (coincident data)."""


class QuadratureNotConverged(RootQuiltError):
    """The conformal solve did not reach the requested residual."""

    def __init__(self, residual: float, tolerance: float, message: str = ""):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(message or f"residual {residual:.3e} above tolerance {tolerance:.3e}")


class SchemaError(RootQuiltError):
    """A catalog or report document failed structural validation."""


class InvariantViolation(RootQuiltError):
    """Validated data broke a semantic invariant."""
