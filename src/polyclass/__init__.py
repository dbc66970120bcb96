"""Exact divisor class groups and structural invariants of lattice polytopes.

The public surface re-exported here mirrors the pipeline: exact integer
linear algebra (``IntMatrix``, ``snf``, ``gcd_minors``), polytope
geometry (``Polytope``), family constructors, class-group computation,
structural analysis, and the one-call ``analyze`` report.
"""

from .analysis import (
    CHECK_NAMES,
    SegreClassification,
    UnitChain,
    VerificationReport,
    classify_segre,
    is_compressed,
    is_normal,
    is_normal_bruteforce,
    k_number,
    polytope_checks,
    product_decompose_01,
    pyramid_peel,
    validate_unit_chain,
    verify_family,
)
from .classgroup import (
    ClassGroupPresentation,
    ClassMatrix,
    class_group,
    class_matrix,
    is_torsionfree,
)
from .errors import InvariantViolation
from .families import (
    Graph,
    Poset,
    all_01_polytopes,
    cube,
    dilate,
    edge_polytope,
    fixture,
    fixture_names,
    order_polytope,
    product,
    pyramid,
    random_01_polytopes,
    simplex,
    stable_set_polytope,
    two_triangles_bridge,
)
from .intlinalg import (
    IntMatrix,
    SnfResult,
    gcd_minors,
    hnf_row_lattice,
    in_row_lattice,
    int_kernel_basis,
    rank,
    snf,
)
from .polytope import FacetData, Polytope
from .report import AnalysisReport, analyze

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CHECK_NAMES",
    "ClassGroupPresentation",
    "ClassMatrix",
    "FacetData",
    "Graph",
    "IntMatrix",
    "InvariantViolation",
    "Polytope",
    "Poset",
    "SegreClassification",
    "SnfResult",
    "UnitChain",
    "VerificationReport",
    "all_01_polytopes",
    "analyze",
    "class_group",
    "class_matrix",
    "classify_segre",
    "cube",
    "dilate",
    "edge_polytope",
    "fixture",
    "fixture_names",
    "gcd_minors",
    "hnf_row_lattice",
    "in_row_lattice",
    "int_kernel_basis",
    "is_compressed",
    "is_normal",
    "is_normal_bruteforce",
    "is_torsionfree",
    "k_number",
    "order_polytope",
    "polytope_checks",
    "product",
    "product_decompose_01",
    "pyramid",
    "pyramid_peel",
    "random_01_polytopes",
    "rank",
    "simplex",
    "snf",
    "stable_set_polytope",
    "two_triangles_bridge",
    "validate_unit_chain",
    "verify_family",
    "__version__",
]
