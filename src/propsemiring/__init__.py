"""Proposition-semiring workbench: finite Boolean propositional algebras
as commutative semirings (+ is AND with identity ⊤, × is OR with
identity ⊥), with exhaustive checkers for every structural claim."""

from .algebra import (ADD, MUL, Algebra, AlgebraError, DomainError, Element,
                      FreeBooleanAlgebra, SizeLimitError, Subalgebra,
                      TableAlgebra, TableLoadError, UnsupportedOperationError,
                      free_boolean_algebra, subalgebra_closure, table_semiring)
from .differences import (CongruenceError, DifferenceCancellationReport,
                          DifferenceSemiring, ExtendedOrderResult,
                          SubtrahendIdeal, difference_cancellation_criterion,
                          difference_semiring, extended_order, is_ideal,
                          mult_left_cancellative, subtrahend_ideal,
                          verify_difference_cancellation)
from .formulas import (And, Atom, Const, Formula, Iff, Implies, Not, Or,
                       ParseError, UnboundAtomError, atoms_of, evaluate, parse,
                       unparse)
from .morphisms import (IsoTheoremReport, KernelRelation, Morphism,
                        check_morphism, enumerate_homs, factor, is_isomorphism,
                        kernel, refines, verify_iso_theorem)
from .order import (OrderRelation, SubalgebraOrderReport, canonical_order,
                    check_bound_decomposition, check_monotony,
                    check_operation_bounds, check_pairwise_monotony,
                    check_poset, cones, discrete_order, subalgebra_order_report)
from .properties import (PropertyReport, additively_cancellable_elements,
                         check_semiring_axioms, compute_center, is_entire,
                         is_multiplicatively_absorbing, is_simple,
                         is_zerosumfree)

__version__ = "0.1.0"

__all__ = [
    "ADD", "MUL", "Algebra", "AlgebraError", "DomainError", "Element",
    "FreeBooleanAlgebra", "SizeLimitError", "Subalgebra", "TableAlgebra",
    "TableLoadError", "UnsupportedOperationError", "free_boolean_algebra",
    "subalgebra_closure", "table_semiring",
    "CongruenceError", "DifferenceCancellationReport", "DifferenceSemiring",
    "ExtendedOrderResult", "SubtrahendIdeal",
    "difference_cancellation_criterion", "difference_semiring",
    "extended_order", "is_ideal", "mult_left_cancellative", "subtrahend_ideal",
    "verify_difference_cancellation",
    "And", "Atom", "Const", "Formula", "Iff", "Implies", "Not", "Or",
    "ParseError", "UnboundAtomError", "atoms_of", "evaluate", "parse",
    "unparse",
    "IsoTheoremReport", "KernelRelation", "Morphism", "check_morphism",
    "enumerate_homs", "factor", "is_isomorphism", "kernel",
    "refines", "verify_iso_theorem",
    "OrderRelation", "SubalgebraOrderReport", "canonical_order",
    "check_bound_decomposition", "check_monotony", "check_operation_bounds",
    "check_pairwise_monotony", "check_poset", "cones", "discrete_order",
    "subalgebra_order_report",
    "PropertyReport", "additively_cancellable_elements",
    "check_semiring_axioms", "compute_center", "is_entire",
    "is_multiplicatively_absorbing", "is_simple", "is_zerosumfree",
    "__version__",
]
