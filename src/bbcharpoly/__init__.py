"""Black-box characteristic polynomials over prime fields and the integers.

The pipeline: compute the minimal polynomial of a matrix known only through
matrix-vector products (Wiedemann), factor it, recover the multiplicity of
each irreducible factor in the characteristic polynomial (kernel dimensions,
combinatorial search over the degree/trace equations, or a discrete-log
linear system), and over the integers reassemble the result by Hensel
lifting a gcd-free basis of the squarefree part of the minimal polynomial.
"""

from .ff import (
    DlogContext,
    find_generator,
    find_index_calculus_field,
    is_prime,
)
from .poly import (
    BadPrimeError,
    ComputationError,
    FieldPoly,
    IntPoly,
    crt_combine,
    factor,
    gcd_free_basis,
    hensel_lift_basis,
    poly_gcd,
    squarefree_part,
)
from .blackbox import (
    BlackBoxOperator,
    LowRankPerturbation,
    PolyOfMatrix,
    ShiftedOperator,
    SparseMatrix,
    build_block_jordan,
    build_companion,
    det_blackbox,
    rank_blackbox,
    wiedemann_minpoly,
)
from .adaptive import AdaptiveConfig, blackbox_charpoly_field
from .integer import integer_charpoly, integer_minpoly

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "BadPrimeError",
    "BlackBoxOperator",
    "ComputationError",
    "DlogContext",
    "FieldPoly",
    "IntPoly",
    "LowRankPerturbation",
    "PolyOfMatrix",
    "ShiftedOperator",
    "SparseMatrix",
    "blackbox_charpoly_field",
    "build_block_jordan",
    "build_companion",
    "crt_combine",
    "det_blackbox",
    "factor",
    "find_generator",
    "find_index_calculus_field",
    "gcd_free_basis",
    "hensel_lift_basis",
    "integer_charpoly",
    "integer_minpoly",
    "is_prime",
    "poly_gcd",
    "rank_blackbox",
    "squarefree_part",
    "wiedemann_minpoly",
]
