"""Exact divisor class groups and structural invariants of lattice polytopes.

The public surface re-exported here mirrors the pipeline: exact integer
linear algebra (``IntMatrix``, ``snf``, ``hnf_row_lattice``), polytope
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
    k_number,
    polytope_checks,
    pyramid_peel,
    validate_unit_chain,
    verify_family,
)
from .classgroup import (
    ClassGroupPresentation,
    ClassMatrix,
    class_group,
    class_matrix,
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
)
from .intlinalg import (
    IntMatrix,
    hnf_row_lattice,
    in_row_lattice,
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
    "hnf_row_lattice",
    "in_row_lattice",
    "is_compressed",
    "is_normal",
    "k_number",
    "order_polytope",
    "polytope_checks",
    "product",
    "pyramid",
    "pyramid_peel",
    "random_01_polytopes",
    "simplex",
    "snf",
    "stable_set_polytope",
    "validate_unit_chain",
    "verify_family",
    "__version__",
]
