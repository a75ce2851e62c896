"""Exact-arithmetic chip-firing on matrix pairs.

A pair couples an arbitrary invertible integer firing matrix L with an
M-matrix M that supplies the validity geometry.  The package enumerates
superstable and critical configurations, builds the duality between
them from a masked involution, analyzes critical groups through their
fracket partitions, and derives pairs from signed graphs.
"""

from .duality import (
    duality,
    duality_inverse,
    duality_table,
    fixed_points,
    involution_mu,
    mu_case,
    nonzero_criteria,
    predicted_fixed_point_count,
)
from .frackets import (
    FracketPartition,
    ZeroFracket,
    cyclic_shortcut,
    fracket_key,
    fracket_partition,
    verify_largest_invariant_factor,
    zero_fracket,
    zero_fracket_size_formula,
)
from .lattices import (
    AbelianGroup,
    EnumerationCapExceeded,
    SnfDecomposition,
    class_id,
    count_order_le2,
    element_order,
    enumerate_class_reps,
    lattice_intersect_with_Zn,
    quotient_group,
    snf,
    subgroup_invariant_factors,
)
from .mmatrix import MMatrix, is_m_matrix
from .pairs import ChipFiringPair, Classification, PairRow
from .sgraph import (
    SignedGraph,
    class_sweep,
    family,
    kn_z2_subgroup,
    parse_edge_list,
    reduced_laplacians,
    scan_critical_groups,
    sweep,
    switching_representatives,
    verify_half_n_integrality,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "ChipFiringPair",
    "Classification",
    "CriterionResult",
    "EnumerationCapExceeded",
    "FracketPartition",
    "MMatrix",
    "PairRow",
    "SignedGraph",
    "SnfDecomposition",
    "ZeroFracket",
    "class_id",
    "class_sweep",
    "count_order_le2",
    "cyclic_shortcut",
    "duality",
    "duality_inverse",
    "duality_table",
    "element_order",
    "enumerate_class_reps",
    "family",
    "fixed_points",
    "fracket_key",
    "fracket_partition",
    "involution_mu",
    "is_m_matrix",
    "kn_z2_subgroup",
    "lattice_intersect_with_Zn",
    "mu_case",
    "nonzero_criteria",
    "parse_edge_list",
    "predicted_fixed_point_count",
    "quotient_group",
    "reduced_laplacians",
    "run_all",
    "run_criterion",
    "scan_critical_groups",
    "snf",
    "subgroup_invariant_factors",
    "sweep",
    "switching_representatives",
    "verify_half_n_integrality",
    "verify_largest_invariant_factor",
    "zero_fracket",
    "zero_fracket_size_formula",
    "__version__",
]

# the acceptance suite and its reference tables load on first use, so a
# command that never checks the paper does not pay for their import
_SUITE = ("CriterionResult", "run_all", "run_criterion")


def __getattr__(name):
    if name in _SUITE:
        from . import verification

        return getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
