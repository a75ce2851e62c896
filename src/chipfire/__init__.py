"""Exact-arithmetic chip-firing on matrix pairs.

A pair couples an arbitrary invertible integer firing matrix L with an
M-matrix M that supplies the validity geometry.  The package enumerates
superstable and critical configurations, builds the duality between
them from a masked involution, analyzes critical groups through their
fracket partitions, and derives pairs from signed graphs; a family's
critical groups come from one pair per orbit of relabeling x switching
on its sign patterns (chipfire.sgraph).

The acceptance suite, the duality and the fracket analysis load on the
first use of one of their names, so `import chipfire` and a command that
never reaches them do not pay for their import.
"""

import importlib
import sys
import types

from .lattices import (
    AbelianGroup,
    EnumerationCapExceeded,
    SnfDecomposition,
    class_id,
    count_order_le2,
    quotient_group,
    snf,
)
from .mmatrix import MMatrix, is_m_matrix
from .pairs import ChipFiringPair, Classification
from .rows import PairRow
from .sgraph import (
    SignedGraph,
    family,
    kn_z2_subgroup,
    orbit_representatives,
    orbit_sweep,
    parse_edge_list,
    reduced_laplacians,
    scan_critical_groups,
    sweep,
    verify_half_n_integrality,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "ChipFiringPair",
    "Classification",
    "CriterionResult",
    "EnumerationCapExceeded",
    "FracketChecks",
    "FracketPartition",
    "MMatrix",
    "PairRow",
    "SignedGraph",
    "SnfDecomposition",
    "class_id",
    "count_order_le2",
    "duality",
    "duality_inverse",
    "duality_table",
    "family",
    "fixed_point_invariants",
    "fixed_points",
    "fracket_checks",
    "fracket_key",
    "fracket_partition",
    "involution_mu",
    "is_m_matrix",
    "kn_z2_subgroup",
    "mu_case",
    "nonzero_criteria",
    "orbit_representatives",
    "orbit_sweep",
    "parse_edge_list",
    "predicted_fixed_point_count",
    "quotient_group",
    "reduced_laplacians",
    "run_all",
    "run_criterion",
    "scan_critical_groups",
    "snf",
    "sweep",
    "verify_half_n_integrality",
    "zero_fracket_quotient",
    "zero_fracket_size",
    "__version__",
]

# module -> the names it supplies on first use (see the docstring)
_LAZY = {
    "verification": ("CriterionResult", "run_all", "run_criterion"),
    "duality": (
        "duality",
        "duality_inverse",
        "duality_table",
        "fixed_point_invariants",
        "fixed_points",
        "involution_mu",
        "mu_case",
        "nonzero_criteria",
        "predicted_fixed_point_count",
    ),
    "frackets": (
        "FracketChecks",
        "FracketPartition",
        "fracket_checks",
        "fracket_key",
        "fracket_partition",
        "zero_fracket_quotient",
        "zero_fracket_size",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


class _Package(types.ModuleType):
    """The package module.  Loading the submodule chipfire.duality binds it
    on the package under the name of the function chipfire.duality; this
    keeps the name for the function, which __getattr__ resolves."""

    def __setattr__(self, name, value):
        if name != "duality" or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # stored in the module dict, past _Package.__setattr__, so a later read
    # finds it without a call here
    globals()[name] = value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value
