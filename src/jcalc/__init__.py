"""Exact calculators for J-invariants of simple algebraic groups of inner
type and the motivic decompositions of generically split flag varieties,
with a verification lab for idempotent lifting over finite coefficients.
"""

from .errors import (
    ContextMismatch,
    DeterminantNotOne,
    HypothesisViolated,
    IndexOutOfRange,
    InternalInconsistency,
    InvalidInput,
    JCalcError,
    LengthMismatch,
    MissingPrime,
    NegativeCoefficient,
    NoDivisor,
    NonIntegralRank,
    NotAFamily,
    NotAlmostIdempotent,
    NotDivisible,
    NotGenericallySplit,
    ParseError,
    SearchBudgetExceeded,
    UnsupportedForm,
)
from .idempotent_lab import (
    CrtSplitting,
    ModMatrix,
    crt_split,
    lift_idempotent,
    lift_isomorphism,
    lift_orthogonal_family,
    mod_inverse,
    random_idempotent_family,
    random_isomorphism_instance,
    random_unimodular,
    sl_lift,
)
from .jinvariant import (
    JInvariant,
    apply_steenrod_rule,
    enumerate_admissible,
    is_admissible,
)
from .kac_table import (
    ConstraintRule,
    GroupForm,
    TorsionData,
    constraint_rules,
    expand_table,
    parse_form,
    so_torsion_data,
    spin_torsion_data,
    table_rows,
    torsion_data,
    torsion_primes,
)
from .motive import (
    MotiveDecomposition,
    canonical_p_dimension,
    decompose,
    integral_decomposition,
    is_m_positive,
    is_sum_indecomposable,
    rational_cycle_counts,
    rost_poincare,
    torsion_index_bound,
)
from .polynomial import Poly, cyclotomic
from .root_data import (
    UNKNOWN,
    DynkinType,
    is_generically_split,
    poincare_complete_flag,
    poincare_homogeneous,
    poincare_weyl_subgroup,
    positive_root_count,
    theta_components,
    weyl_degrees,
    weyl_order,
)
from .sweep import (
    SweepReport,
    admissible_census,
    consistent_split_thetas,
    consistent_split_vertices,
    run_divisibility_sweep,
)
from .truncated_ring import (
    RingElement,
    deglex_key,
    j_from_generators,
    lucas_binom,
    subring_closure,
)

__version__ = "0.1.0"
