"""The contract of the ten result types: repr, keyword construction,
defaults, immutability, no per-instance ``__dict__`` and lengths derived
from the data they count."""

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

# (instance, its stored field names in order, its repr).  The derived
# lengths IntMatrix.rows, SnfResult.rank and UnitChain.k are no fields.
CASES = [
    (_M, ("cols", "entries"), "IntMatrix(cols=2, entries=((1, 0), (2, 3)))"),
    (SnfResult((1, 3)), ("invariant_factors",), "SnfResult(invariant_factors=(1, 3))"),
    (simplex(1).facets[0], ("facet_id", "vertex_set", "row", "int_form", "divisor"),
     "FacetData(facet_id=0, vertex_set=(0,), row=(0, 1), int_form=((1,), 0), divisor=1)"),
    (ClassMatrix(_M), ("matrix",),
     "ClassMatrix(matrix=IntMatrix(cols=2, entries=((1, 0), (2, 3))))"),
    (ClassGroupPresentation(1, (1, 2)), ("free_rank", "full_factors"),
     "ClassGroupPresentation(free_rank=1, full_factors=(1, 2))"),
    (UnitChain(((0, 1),), (3,)), ("points", "facet_ids"),
     "UnitChain(points=((0, 1),), facet_ids=(3,))"),
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
     ("name", "polytope", "class_group", "class_matrix_rows", "compressed", "normal",
      "simple", "unit_chain", "peel_core_vertices", "peel_apexes", "segre", "warnings"),
     "AnalysisReport(name='segment', polytope=Polytope(dim=1, vertices=[(0,), (1,)]), "
     "class_group=ClassGroupPresentation(free_rank=0, full_factors=(1, 1)), "
     "class_matrix_rows=((0, 1), (1, 0)), compressed=True, normal=True, "
     "simple=True, unit_chain=UnitChain(points=((1,), (0,)), facet_ids=(0, 1)), "
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


# _replace and _make build through tuple.__new__, past each type's checks,
# so a length stored beside its data could be left disagreeing with it.
DERIVED = [
    (_M, {"entries": ((1, 2),)}, "rows", 1),
    (SnfResult((1, 3)), {"invariant_factors": (2, 4, 8)}, "rank", 3),
    (UnitChain(((0, 1),), (3,)), {"points": ((0, 1), (1, 1)), "facet_ids": (3, 4)}, "k", 2),
]


@pytest.mark.parametrize("obj, changes, derived, length", DERIVED,
                         ids=[type(x).__name__ for x, *_ in DERIVED])
def test_derived_length_follows_replaced_data(obj, changes, derived, length):
    assert getattr(obj._replace(**changes), derived) == length
    with pytest.raises(AttributeError):
        setattr(obj, derived, length)


def test_defaults():
    assert CheckOutcome("x", 1, 0, 0, None).first_index is None
    rep = AnalysisReport(name="point", polytope=simplex(0))
    optional = ("class_group", "class_matrix_rows", "compressed", "normal", "simple",
                "unit_chain", "peel_core_vertices", "peel_apexes", "segre")
    assert all(getattr(rep, f) is None for f in optional)
    assert rep.warnings == ()
