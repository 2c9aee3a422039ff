"""Exact spectral tables for Hermitian operators with repeated eigenvalues.

The package computes, over the complex numbers and in exact integer
arithmetic:

* the Borel-Moore homology of the locus of n x n Hermitian operators having
  an eigenvalue of multiplicity at least two, block by block along the
  complexity filtration of its cone-of-orthogonal-collections resolution
  (:mod:`conres.resolution`);
* the reduced homology of the links of those cones, by recursion on the
  ambient dimension (:func:`conres.resolution.link_poincare`);
* graded characters of block permutations on partial flag manifold cohomology
  and the Poincare polynomials of the quotient collection spaces
  (:mod:`conres.flagchar`);
* the cohomology ring of the complement (operators with simple spectrum) with
  staircase normal forms, and the order filtration on its degree-2 part
  (:mod:`conres.cohomring`);
* stabilization bounds for the cohomological table as n grows
  (:mod:`conres.stab`).

The ``conres`` command-line tool exposes the tables, the link polynomials,
the quotient homology, the verifiers, the degree-2 order and the
stabilization bounds; see ``conres --help``.
"""

from .qcombinat import (
    BlockClass,
    BudgetExceededError,
    ConsistencyError,
    GradedDims,
    InexactDivisionError,
    MultiIndex,
    QPoly,
    conjugacy_classes,
    gauss_multinomial,
    multiindices,
    partitions,
)
from .flagchar import (
    coinvariant_trace,
    gamma_poincare,
    gamma_trace,
    gamma_trace_naive,
)
from .resolution import (
    MillerReport,
    SpectralTable,
    VerificationReport,
    block_poincare,
    fiber_char,
    h_poly,
    link_poincare,
    miller_check,
    spectral_table,
    symbols,
    total_discriminant_poincare,
    verify,
)
from .cohomring import (
    DegreeTwoClass,
    RingElement,
    cup,
    first_order_h4,
    generator,
    h2_order,
    normal_form,
    ring_poincare,
    shift_difference,
)
from .stab import (
    StabReport,
    StableCell,
    cohomological_rank,
    e1_stable_bound,
    stab_index,
    stable_cell,
    stable_table,
)

__version__ = "0.1.0"

__all__ = [
    "BlockClass",
    "BudgetExceededError",
    "ConsistencyError",
    "DegreeTwoClass",
    "GradedDims",
    "InexactDivisionError",
    "MillerReport",
    "MultiIndex",
    "QPoly",
    "RingElement",
    "SpectralTable",
    "StabReport",
    "StableCell",
    "VerificationReport",
    "block_poincare",
    "cohomological_rank",
    "coinvariant_trace",
    "conjugacy_classes",
    "cup",
    "e1_stable_bound",
    "fiber_char",
    "first_order_h4",
    "gamma_poincare",
    "gamma_trace",
    "gamma_trace_naive",
    "gauss_multinomial",
    "generator",
    "h2_order",
    "h_poly",
    "link_poincare",
    "miller_check",
    "multiindices",
    "normal_form",
    "partitions",
    "ring_poincare",
    "shift_difference",
    "spectral_table",
    "stab_index",
    "stable_cell",
    "stable_table",
    "symbols",
    "total_discriminant_poincare",
    "verify",
]
