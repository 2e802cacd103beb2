"""seqnorm: engines and a verification harness for two implicitly defined
sequence-space norms on finitely supported vectors.

Space "x2" is governed by admissible families of (scale, index set) pairs
with a cardinality budget; space "x1" mixes partition seminorms over a
configurable scale sequence through a square sum.  The engines compute
exact values with optimal witnesses (segment-mode "x2" a certified lower
bound); the rest of the package builds the special vectors those norms are
known for (sup-norm chains, l_p averages, scale-localized vectors, the matrix
grid) and numerically verifies their quantitative inequalities.
"""
from .admissible import AdmissibleFamily, FamilyValidationError
from .blocks import (
    AssembledAverage,
    BasisEvaluator,
    BlockBasis,
    EquivalenceEstimate,
    UnconditionalityError,
    assemble_lp_average,
    embed_unconditional,
    engine_basis,
    equivalence_constant,
    lp_basis,
    matrix_basis_norm,
    operator_norm_oracle,
)
from .constructions import (
    BudgetExceededError,
    ChainCertificate,
    GridParams,
    LocalizedParams,
    build_average,
    build_chain,
    build_localized_vector,
    build_matrix_grid,
    equal_split_check,
    grid_requirements,
    plan_chain,
)
from .core import (
    CoefficientPattern,
    EQ_TOL,
    FiniteVector,
    INEQ_TOL,
    IndexSet,
    check_f_submultiplicative,
    f,
)
from .family_engine import (
    Exhaustive,
    FamilyEngine,
    IterationCapError,
    SearchMode,
    SegmentDP,
    SupportLimitError,
    get_engine,
    norm_ell,
    norm_x2,
)
from .inequalities import (
    dilution_constant,
    strict_drop_check,
    verify_average_bounds,
    verify_chain_stacks,
    verify_offpeak_sum,
    verify_rapid_averages,
    verify_stack_seminorm,
)
from .qsum_engine import (
    QSumConfig,
    QSumEngine,
    get_qsum_engine,
    norm_x1,
)
from .witness import (
    FamilyWitness,
    PartitionWitness,
    QuadraticWitness,
    SupWitness,
    Witness,
    evaluate_witness,
    validate_witness,
    witness_from_json,
    witness_to_json,
)

__version__ = "0.1.0"
