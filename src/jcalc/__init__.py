"""Exact calculators for J-invariants of simple algebraic groups of inner
type and the motivic decompositions of generically split flag varieties,
with a verification lab for idempotent lifting over finite coefficients.

Importing the package loads no calculator: each public name, and each
submodule as an attribute, imports its home module on first use (PEP
562), so a caller pays only for the calculators it reaches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# home module -> its public names: the one table __all__, __dir__ and
# __getattr__ read
_HOMES = {
    "errors": (
        "ContextMismatch DeterminantNotOne HypothesisViolated IndexOutOfRange "
        "InternalInconsistency InvalidInput JCalcError MissingPrime "
        "NegativeCoefficient NoDivisor NonIntegralRank NotAFamily NotAlmostIdempotent "
        "NotDivisible NotGenericallySplit ParseError SearchBudgetExceeded UnsupportedForm"),
    "idempotent_lab": (
        "CrtSplitting ModMatrix crt_split lift_idempotent lift_isomorphism "
        "lift_orthogonal_family mod_inverse random_idempotent_family "
        "random_isomorphism_instance random_unimodular sl_lift"),
    "jinvariant": "JInvariant apply_steenrod_rule enumerate_admissible is_admissible",
    "kac_table": (
        "ConstraintRule GroupForm TorsionData constraint_rules expand_table parse_form "
        "table_rows torsion_data torsion_primes"),
    "motive": (
        "MotiveDecomposition canonical_p_dimension decompose integral_decomposition "
        "is_m_positive is_sum_indecomposable rational_cycle_counts rost_poincare "
        "torsion_index_bound"),
    "polynomial": "Poly cyclotomic",
    "root_data": (
        "UNKNOWN DynkinType is_generically_split poincare_complete_flag "
        "poincare_homogeneous poincare_weyl_subgroup "
        "theta_components weyl_degrees weyl_order"),
    "sweep": (
        "SweepReport admissible_census consistent_split_thetas consistent_split_vertices "
        "run_divisibility_sweep"),
    "truncated_ring": "RingElement deglex_key j_from_generators lucas_binom subring_closure",
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names.split()}
_SUBMODULES = frozenset(_HOMES) | {"cli", "integers"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(_import_module("." + _EXPORTS[name], __name__), name)
    elif name in _SUBMODULES:
        value = _import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
