"""The contract of the nine result types: repr, keyword construction,
defaults, immutability, no per-instance ``__dict__`` and lengths derived
from the data they count."""

from __future__ import annotations

import pickle

import pytest

from polyclass import Polytope, dilate, simplex
from polyclass.analysis import CheckOutcome, SegreClassification, UnitChain, VerificationReport
from polyclass.classgroup import ClassGroupPresentation, ClassMatrix
from polyclass.intlinalg import IntMatrix
from polyclass.report import AnalysisReport, analyze

_M = IntMatrix.from_rows([[1, 0], [2, 3]])
_OUTCOME = CheckOutcome("chain_length_bound", 2, 1, 0, simplex(1), 1)

# (instance, its stored field names in order, its repr).  The derived values
# IntMatrix.rows, UnitChain.k, VerificationReport.total and SegreClassification.tag
# are no fields, nor are the report's compressedness and simplicity.
CASES = [
    (_M, ("cols", "entries"), "IntMatrix(cols=2, entries=((1, 0), (2, 3)))"),
    (simplex(1).facets[0], ("vertex_set", "row", "int_form", "divisor"),
     "FacetData(vertex_set=(0,), row=(0, 1), int_form=((1,), 0), divisor=1)"),
    (ClassMatrix(_M), ("matrix",),
     "ClassMatrix(matrix=IntMatrix(cols=2, entries=((1, 0), (2, 3))))"),
    (ClassGroupPresentation(1, (1, 2)), ("free_rank", "full_factors"),
     "ClassGroupPresentation(free_rank=1, full_factors=(1, 2))"),
    (UnitChain(((0, 1),), (3,)), ("points", "facet_ids"),
     "UnitChain(points=((0, 1),), facet_ids=(3,))"),
    (SegreClassification((1, 2), 1), ("simplex_dims", "apex_count"),
     "SegreClassification(simplex_dims=(1, 2), apex_count=1)"),
    (_OUTCOME,
     ("name", "passed", "failed", "skipped", "first_counterexample", "first_index"),
     "CheckOutcome(name='chain_length_bound', passed=2, failed=1, skipped=0, "
     "first_counterexample=Polytope(dim=1, vertices=[(0,), (1,)]), first_index=1)"),
    (VerificationReport((_OUTCOME,)), ("outcomes",),
     "VerificationReport(outcomes=(CheckOutcome(name='chain_length_bound', "
     "passed=2, failed=1, skipped=0, first_counterexample=Polytope(dim=1, "
     "vertices=[(0,), (1,)]), first_index=1),))"),
    (analyze(simplex(1), name="segment"),
     ("name", "polytope", "class_group", "class_matrix_rows", "normal", "unit_chain",
      "peel_core_vertices", "segre"),
     "AnalysisReport(name='segment', polytope=Polytope(dim=1, vertices=[(0,), (1,)]), "
     "class_group=ClassGroupPresentation(free_rank=0, full_factors=(1, 1)), "
     "class_matrix_rows=((0, 1), (1, 0)), normal=True, "
     "unit_chain=UnitChain(points=((1,), (0,)), facet_ids=(0, 1)), "
     "peel_core_vertices=((0,),), segre=SegreClassification("
     "simplex_dims=None, apex_count=0))"),
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
# so a value stored beside its data could be left disagreeing with it.
DERIVED = [
    (_M, {"entries": ((1, 2),)}, "rows", 1),
    (UnitChain(((0, 1),), (3,)), {"points": ((0, 1), (1, 1)), "facet_ids": (3, 4)}, "k", 2),
    (VerificationReport((_OUTCOME,)), {"outcomes": (_OUTCOME._replace(passed=5),)}, "total", 6),
]


@pytest.mark.parametrize("obj, changes, derived, length", DERIVED,
                         ids=[type(x).__name__ for x, *_ in DERIVED])
def test_derived_length_follows_replaced_data(obj, changes, derived, length):
    assert getattr(obj._replace(**changes), derived) == length
    with pytest.raises(AttributeError):
        setattr(obj, derived, length)


def test_empty_verification_has_total_zero():
    assert VerificationReport(()).total == 0
    assert VerificationReport(()).ok


def test_report_reads_compressed_and_simple_off_its_polytope():
    rep = analyze(simplex(1), name="segment")
    assert (rep.to_dict()["compressed"], rep.to_dict()["simple"]) == (True, True)
    square_pyramid = Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    d = rep._replace(polytope=dilate(square_pyramid, 2)).to_dict()
    assert (d["compressed"], d["simple"]) == (False, False)


def test_segre_tag_is_read_off_simplex_dims():
    assert SegreClassification((1, 2), 0).tag == "SEGRE"
    assert SegreClassification(None, 0).tag == "NOT_APPLICABLE"
    c = SegreClassification((1, 2), 1)
    assert c._replace(simplex_dims=None).tag == "NOT_APPLICABLE"
    with pytest.raises(AttributeError):
        c.tag = "NOT_APPLICABLE"


def test_defaults():
    assert CheckOutcome("x", 1, 0, 0, None).first_index is None
    rep = AnalysisReport(name="point", polytope=simplex(0))
    optional = ("class_group", "class_matrix_rows", "normal", "unit_chain",
                "peel_core_vertices", "segre")
    assert AnalysisReport._fields == ("name", "polytope") + optional
    assert all(getattr(rep, f) is None for f in optional)
    assert rep.to_dict()["warnings"] == []
