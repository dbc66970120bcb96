"""The contract of the ten result types: repr, keyword construction,
defaults, immutability and no per-instance ``__dict__``."""

from __future__ import annotations

import pickle

import pytest

from polyclass import simplex
from polyclass.analysis import CheckOutcome, SegreClassification, UnitChain, VerificationReport
from polyclass.classgroup import ClassGroupPresentation, ClassMatrix
from polyclass.intlinalg import IntMatrix, SnfResult
from polyclass.report import AnalysisReport, analyze

_M = IntMatrix.from_rows([[1, 0], [2, 3]])
_OUTCOME = CheckOutcome("chain_length_bound", 2, 1, 0, simplex(1), 1)

# (instance, its field names in order, its repr computed before the types
# became named tuples)
CASES = [
    (_M, ("rows", "cols", "entries"),
     "IntMatrix(rows=2, cols=2, entries=((1, 0), (2, 3)))"),
    (SnfResult(2, (1, 3)), ("rank", "invariant_factors"),
     "SnfResult(rank=2, invariant_factors=(1, 3))"),
    (simplex(1).facets[0], ("facet_id", "vertex_set", "row", "int_form", "divisor"),
     "FacetData(facet_id=0, vertex_set=(0,), row=(0, 1), int_form=((1,), 0), divisor=1)"),
    (ClassMatrix(_M, (0, 1), ((0,), (1,))), ("matrix", "row_labels", "col_labels"),
     "ClassMatrix(matrix=IntMatrix(rows=2, cols=2, entries=((1, 0), (2, 3))), "
     "row_labels=(0, 1), col_labels=((0,), (1,)))"),
    (ClassGroupPresentation(1, (1, 2), formal=True), ("free_rank", "full_factors", "formal"),
     "ClassGroupPresentation(free_rank=1, full_factors=(1, 2), formal=True)"),
    (UnitChain(1, ((0, 1),), (3,)), ("k", "points", "facet_ids"),
     "UnitChain(k=1, points=((0, 1),), facet_ids=(3,))"),
    (SegreClassification("SEGRE", (1, 2), 1), ("tag", "simplex_dims", "apex_count"),
     "SegreClassification(tag='SEGRE', simplex_dims=(1, 2), apex_count=1)"),
    (_OUTCOME,
     ("name", "passed", "failed", "skipped", "first_counterexample", "first_index"),
     "CheckOutcome(name='chain_length_bound', passed=2, failed=1, skipped=0, "
     "first_counterexample=Polytope(dim=1, vertices=[(0,), (1,)]), first_index=1)"),
    (VerificationReport(3, (_OUTCOME,)), ("total", "outcomes"),
     "VerificationReport(total=3, outcomes=(CheckOutcome(name='chain_length_bound', "
     "passed=2, failed=1, skipped=0, first_counterexample=Polytope(dim=1, "
     "vertices=[(0,), (1,)]), first_index=1),))"),
    (analyze(simplex(1), name="segment"),
     ("name", "polytope", "trivial", "class_group", "class_matrix_rows", "compressed",
      "normal", "simple", "unit_chain", "peel_core_vertices", "peel_apexes", "segre",
      "warnings"),
     "AnalysisReport(name='segment', polytope=Polytope(dim=1, vertices=[(0,), (1,)]), "
     "trivial=False, class_group=ClassGroupPresentation(free_rank=0, full_factors=(1, 1), "
     "formal=False), class_matrix_rows=((0, 1), (1, 0)), compressed=True, normal=True, "
     "simple=True, unit_chain=UnitChain(k=2, points=((1,), (0,)), facet_ids=(0, 1)), "
     "peel_core_vertices=((0,),), peel_apexes=1, segre=SegreClassification("
     "tag='NOT_APPLICABLE', simplex_dims=None, apex_count=0), warnings=())"),
]
IDS = [type(x).__name__ for x, _, _ in CASES]


@pytest.mark.parametrize("obj, fields, text", CASES, ids=IDS)
def test_repr(obj, fields, text):
    assert repr(obj) == text


@pytest.mark.parametrize("obj, fields, text", CASES, ids=IDS)
def test_keyword_construction_with_every_field(obj, fields, text):
    again = type(obj)(**{f: getattr(obj, f) for f in fields})
    assert again == obj and type(again) is type(obj)
    assert hash(again) == hash(obj)
    assert pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize("obj, fields, text", CASES, ids=IDS)
def test_immutable_without_a_dict(obj, fields, text):
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(obj, f, getattr(obj, f))
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")


def test_defaults():
    assert ClassGroupPresentation(0, (1,)).formal is False
    assert CheckOutcome("x", 1, 0, 0, None).first_index is None
    rep = AnalysisReport(name="point", polytope=simplex(0), trivial=True)
    optional = ("class_group", "class_matrix_rows", "compressed", "normal", "simple",
                "unit_chain", "peel_core_vertices", "peel_apexes", "segre")
    assert all(getattr(rep, f) is None for f in optional)
    assert rep.warnings == ()
