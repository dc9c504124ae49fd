"""Exact combinatorics of restricted root systems with multiplicities.

The package computes, over exact rationals: Weyl groups and chambers,
lattice windows and generic shifts, quilt indices with their bad/ugly
classification, the fractional filtration on the Weyl group, the
unit-sector product with its triangularity certificates, and (the one
floating-point corner) a conformal triangle model for the degenerate
boundary problem.
"""

from .catalog import CatalogEntry, get_entry, load_catalog
from .errors import (
    BudgetExceeded,
    Degenerate,
    FloorBoundary,
    InvariantViolation,
    LatticeNotStable,
    ModeMismatch,
    NotDominant,
    NotInChamber,
    NotRegular,
    NotSmall,
    NotUgly,
    QuadratureNotConverged,
    RootQuiltError,
    SchemaError,
    UnknownRoot,
    WindowTooSmall,
)
from .indices import (
    MonotoneData,
    ParityReport,
    QuiltClass,
    QuiltDatum,
    capping_area,
    capping_maslov,
    classify,
    default_tau,
    filtration_weight,
    monotone_data,
    morse_index,
    parity_report,
    poincare_polynomial,
    quilt_index,
    relative_degree,
    ugly_index,
    zero_index_implication,
)
from .lattice import (
    Chord,
    Generator,
    GenericShift,
    Lattice,
    Mode,
    canonical_shift,
    chords,
    generators,
    validate_generic,
    weighted_root_sum,
)
from .ring import (
    LeadingTerm,
    finitely_generated_witness,
    leading_term,
    r_module_basis_check,
    star_unit_sector,
    triangularity_certificate,
)
from .roots import RestrictedRootSystem, WeylElement, WeylGroup
from .suite import Report, emit, run_suite
from .triangle import (
    AffineLagrangianTriple,
    PlaneModel,
    TriangleMapSolution,
    boundary_deviation,
    build_triple,
    plane_model,
    solve_triangle,
    symmetry_residual,
    verify_hull,
)

__version__ = "0.1.0"
