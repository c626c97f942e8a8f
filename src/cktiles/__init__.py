"""Exact tools for tile systems built from commuting nonnegative integer matrices.

Two essential matrices A, B with AB = BA, together with an endpoint-preserving
bijection between two-step edge paths, determine a Wang tile set, a
two-dimensional shift, and a Cuntz-Krieger algebra.  This package constructs
all of that in exact integer arithmetic: the tile set and its transition
matrices, transitivity and condition (I) checks, K-groups via Smith normal
forms with an independent determinantal-divisor oracle, and the closed-form
K-theory of exchange systems via the Euclidean algorithm and continuants.
"""

from .closedform import (
    ClosedFormComparison,
    ClosedFormResult,
    EuclidTrace,
    closed_form_kgroups,
    closed_form_order,
    continuant,
    euclid_trace,
    exchange_k0_blockwise,
    torsion_tail_matrix,
    torsion_tail_orders,
    verify_closed_form,
)
from .errors import (
    CommutationError,
    InputError,
    InternalCheckError,
    OracleScaleError,
    SpecificationError,
)
from .graph import (
    DirectedMultigraph,
    Edge,
    graph_from_matrix,
    is_essential,
    is_irreducible,
    satisfies_condition_I,
    unreachable_pair,
)
from .ktheory import (
    AbelianGroup,
    KGroups,
    SnfResult,
    block_matrix_k0,
    canonicalize,
    cokernel,
    group_equal,
    invariant_factors_oracle,
    kernel_rank,
    kgroups_of_system,
    smith_normal_form,
)
from .matrices import IntMatrix
from .textile import (
    Specification,
    TextileSystem,
    Tile,
    ValidationReport,
    build_system,
    canonical_specification,
    canonical_system,
    check_commutation,
    exchange_specification,
    exchange_system,
    sigma_ab,
    sigma_ba,
    validate_specification,
)
from .tiling import (
    DOWN,
    RIGHT,
    DiagonalPropertyResult,
    PavedPatch,
    StaircaseWitness,
    check_diagonal_property,
    diagonal_property_of_tiles,
    extend_patch,
    find_transitivity_witness,
    is_transitive_matrix,
    is_transitive_search,
    witness_is_valid,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "ClosedFormComparison",
    "ClosedFormResult",
    "CommutationError",
    "DiagonalPropertyResult",
    "DirectedMultigraph",
    "DOWN",
    "Edge",
    "EuclidTrace",
    "InputError",
    "InternalCheckError",
    "IntMatrix",
    "KGroups",
    "OracleScaleError",
    "PavedPatch",
    "RIGHT",
    "SnfResult",
    "Specification",
    "SpecificationError",
    "StaircaseWitness",
    "TextileSystem",
    "Tile",
    "ValidationReport",
    "block_matrix_k0",
    "build_system",
    "canonical_specification",
    "canonical_system",
    "canonicalize",
    "check_commutation",
    "check_diagonal_property",
    "closed_form_kgroups",
    "closed_form_order",
    "cokernel",
    "continuant",
    "diagonal_property_of_tiles",
    "euclid_trace",
    "exchange_k0_blockwise",
    "exchange_specification",
    "exchange_system",
    "extend_patch",
    "find_transitivity_witness",
    "graph_from_matrix",
    "group_equal",
    "invariant_factors_oracle",
    "is_essential",
    "is_irreducible",
    "is_transitive_matrix",
    "is_transitive_search",
    "kernel_rank",
    "kgroups_of_system",
    "satisfies_condition_I",
    "sigma_ab",
    "sigma_ba",
    "smith_normal_form",
    "torsion_tail_matrix",
    "torsion_tail_orders",
    "unreachable_pair",
    "validate_specification",
    "verify_closed_form",
    "witness_is_valid",
]
