"""Boolean function analysis over GF(2).

Parse and manipulate algebraic normal forms, run greedy 0-restrictions,
decompose quadratics into their canonical form, and constructively find
large flats on which a low-thickness function is constant.
"""

from .anf_core import (
    Anf,
    FunctionInput,
    anf_to_truth_table,
    format_anf,
    parse_anf,
    parse_truth_table,
    truth_table_to_anf,
)
from .f2_linalg import AffineMap, BitMatrix, BitVec, Flat
from .pipeline import FlatReport, find_constant_flat, verify_flat
from .quadratic import DicksonForm, dickson_decompose
from .restriction import (
    RestrictionState,
    RestrictionTrace,
    UntilCrucialAtMostThirdOfAlive,
    UntilNoCrucial,
    exhaustive_hitting_set,
    greedy_restrict,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "Anf",
    "BitMatrix",
    "BitVec",
    "DicksonForm",
    "Flat",
    "FlatReport",
    "FunctionInput",
    "RestrictionState",
    "RestrictionTrace",
    "UntilCrucialAtMostThirdOfAlive",
    "UntilNoCrucial",
    "anf_to_truth_table",
    "dickson_decompose",
    "exhaustive_hitting_set",
    "find_constant_flat",
    "format_anf",
    "greedy_restrict",
    "parse_anf",
    "parse_truth_table",
    "truth_table_to_anf",
    "verify_flat",
    "__version__",
]
