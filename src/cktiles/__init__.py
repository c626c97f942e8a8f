"""Exact tools for tile systems built from commuting nonnegative integer matrices.

Two essential matrices A, B with AB = BA, together with an endpoint-preserving
bijection between two-step edge paths, determine a Wang tile set, a
two-dimensional shift, and a Cuntz-Krieger algebra.  This package constructs
all of that in exact integer arithmetic: the tile set and its transition
matrices, transitivity and condition (I) checks, K-groups via Smith normal
forms with an independent determinantal-divisor oracle, and the closed-form
K-theory of exchange systems via the Euclidean algorithm and continuants.
"""

from types import ModuleType as _ModuleType

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
    witness_path,
)

__version__ = "0.1.0"

__all__ = sorted(  # every public name imported above
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
