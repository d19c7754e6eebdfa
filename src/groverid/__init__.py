"""Exact parallel discrimination schemes for Grover-type phase oracles.

Construct, verify, optimize, and execute zero-error identification
schemes for the N phase oracles that flip the sign of a single basis
state.  All scheme-level checks run in exact rational arithmetic.
"""

from .amplitude import SqrtRational
from .discrimination import (
    CanonicalBlock,
    DiscriminationGraph,
    SingleCopyState,
    block_graph,
    block_state,
    canonicalize,
    copy_discriminates,
    discrimination_graph,
    is_complete_cover,
)
from .exceptions import (
    AmbiguousClassificationError,
    GroveridError,
    IndistinguishableError,
    ResourceCapError,
    SchemaError,
    TrivialStateError,
)
from .identifier import (
    IdentificationRun,
    OracleBlackBox,
    exhaustive_check,
    run_identification,
)
from .optimizer import (
    CoverInstance,
    CoverSolution,
    FeasibilityResult,
    entangled_feasible,
    min_entangled_t,
    min_product_cover,
)
from .oracle import (
    AmpState,
    BasisTuple,
    Composition,
    GroverOracle,
    apply_oracle,
    apply_oracle_to_copy,
    composition_of,
    enumerate_compositions,
    odd_pair_count,
    overlap,
    tau_parity,
)
from .schemes import (
    ProductScheme,
    SchemeReport,
    WeightProfile,
    builtin,
    construct_product_scheme,
    construction_size,
    expand_to_state,
    general_lower_bound,
    verify_entangled,
    verify_product,
)

__version__ = "0.1.0"
