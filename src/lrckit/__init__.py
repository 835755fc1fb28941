"""Toolkit for optimal locally recoverable codes built from set families.

Pipeline: generate a family of (r+1)-subsets of [q] satisfying the coverage
condition (`setfam`, `derand`), turn it into a block-Vandermonde
parity-check matrix and verify distance and optimality exhaustively
(`lrc`), then encode, repair, and decode words (`codec`).  `cli` exposes
the same steps as a command-line pipeline over small text files.
"""

from .codec import (
    DecodingError,
    InconsistentWordError,
    LocalRepairError,
    RepairResult,
    UnrecoverableError,
    encode,
    erasure_decode,
    generator_from_parity,
    is_codeword,
    local_repair,
    repair,
    repair_groups,
    syndrome,
)
from .derand import derandomized_family
from .gf import GF, prime_power
from .lrc import (
    CodeParams,
    OptimalityKind,
    OptimalityVerdict,
    ParityCheckMatrix,
    build_parity_check,
    code_params_from_family,
    columns_independent,
    exact_min_distance,
    min_distance_witness,
    optimality_check,
    singleton_bound,
    verify_distance_at_least,
)
from .setfam import (
    BergeCycle,
    GenerationError,
    Hypergraph,
    SetFamily,
    Violation,
    equivalence_check,
    family_size_upper_bound,
    find_berge_cycle,
    greedy_family,
    is_berge_cycle,
    packing_ceiling,
    random_family,
    target_family_size,
    to_hypergraph,
    verify_union_condition,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "prime_power",
    "SetFamily",
    "Violation",
    "Hypergraph",
    "BergeCycle",
    "GenerationError",
    "verify_union_condition",
    "to_hypergraph",
    "find_berge_cycle",
    "is_berge_cycle",
    "equivalence_check",
    "target_family_size",
    "family_size_upper_bound",
    "packing_ceiling",
    "random_family",
    "greedy_family",
    "derandomized_family",
    "ParityCheckMatrix",
    "CodeParams",
    "OptimalityKind",
    "OptimalityVerdict",
    "build_parity_check",
    "columns_independent",
    "verify_distance_at_least",
    "exact_min_distance",
    "min_distance_witness",
    "singleton_bound",
    "optimality_check",
    "code_params_from_family",
    "generator_from_parity",
    "encode",
    "syndrome",
    "is_codeword",
    "repair_groups",
    "local_repair",
    "erasure_decode",
    "repair",
    "RepairResult",
    "DecodingError",
    "UnrecoverableError",
    "InconsistentWordError",
    "LocalRepairError",
    "__version__",
]
