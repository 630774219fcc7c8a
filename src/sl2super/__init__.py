"""Exact-arithmetic toolkit for Leibniz superalgebras whose even part is the
3-dimensional simple Lie algebra.

The package provides the multiplication-table catalog (``catalog``), exact
rational linear algebra (``linalg``), identity checkers over arbitrary tables
(``algebra``), and the constraint generator and solver that recovers the
possible odd-times-odd products of a given bimodule (``classify``).  All
arithmetic is over the rationals; no floating point is used anywhere, so
every reported kernel dimension is exact and transfers verbatim to any field
extension of the rationals.
"""

from .algebra import (BasisVector, BimoduleSpec, Element, Parity,
                      SuperAlgebra, Violation, ViolationReport,
                      check_bimodule_axioms, check_graded_antisymmetry,
                      check_leibniz, check_leibniz_super, right_annihilator,
                      symmetrized_products_in_annihilator)
from .catalog import (CATALOG_IDS, ERRATA, Erratum, OddBracketTable, assemble,
                      bimodule_m1, bimodule_m2, bimodule_m3, bimodule_m4,
                      module_n1, module_n2, resolve, sl2, superalgebra_s1,
                      superalgebra_s2)
from .classify import (Classification, ConstraintRow, ConstraintSystem,
                       InvalidStructure, SolutionSpace, UnknownId,
                       alternating_coefficient_rows, annihilator_prefilter,
                       classify, generate_constraints, residual_matrix,
                       solve, symmetric_ladder_hand_system,
                       verify_rescaling_isomorphism,
                       weight_compatible_unknowns)
from .linalg import (Matrix, RowSpace, Scalar, format_scalar, nullspace,
                     parse_scalar, rank, rational_sqrt, rref)

__version__ = "0.1.0"

__all__ = [
    "BasisVector", "BimoduleSpec", "Element", "Parity", "SuperAlgebra",
    "Violation", "ViolationReport", "check_bimodule_axioms",
    "check_graded_antisymmetry", "check_leibniz", "check_leibniz_super",
    "right_annihilator", "symmetrized_products_in_annihilator",
    "CATALOG_IDS", "ERRATA", "Erratum", "OddBracketTable", "assemble",
    "bimodule_m1", "bimodule_m2", "bimodule_m3", "bimodule_m4",
    "module_n1", "module_n2", "resolve", "sl2", "superalgebra_s1",
    "superalgebra_s2",
    "Classification", "ConstraintRow", "ConstraintSystem",
    "InvalidStructure", "SolutionSpace", "UnknownId",
    "alternating_coefficient_rows", "annihilator_prefilter", "classify",
    "generate_constraints", "residual_matrix", "solve",
    "symmetric_ladder_hand_system", "verify_rescaling_isomorphism",
    "weight_compatible_unknowns",
    "Matrix", "RowSpace", "Scalar", "format_scalar", "nullspace",
    "parse_scalar", "rank", "rational_sqrt", "rref",
    "__version__",
]
