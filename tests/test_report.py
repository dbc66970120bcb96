"""Analysis reports: content, consistency, and stable serialization."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from polyclass import (
    InvariantViolation,
    Polytope,
    UnitChain,
    all_01_polytopes,
    analyze,
    cube,
    dilate,
    edge_polytope,
    fixture,
    fixture_names,
    k_number,
    polytope_checks,
    product,
    pyramid,
    simplex,
    validate_unit_chain,
)
from polyclass import cli, report
from polyclass.report import _dumps
from support import benchmark_workloads, two_triangles_bridge


# Strings heavy in what JSON must escape: quotes, backslashes, control
# characters, and non-ASCII text inside and outside the BMP.
_text = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f/aé€\U0001f600') | st.characters())
_ints = st.integers() | st.integers(-10**60, 10**60)
_scalars = _ints | _text | st.booleans() | st.none()
_json_trees = st.recursive(
    _scalars | st.lists(_ints) | st.lists(_ints | st.booleans() | st.none()),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(_text, children)),
    max_leaves=20)


class TestAnalyze:
    def test_skew_quadrilateral(self):
        rep = analyze(fixture("P3"), name="P3")
        assert rep.normal is True
        assert rep.unit_chain.k == 1
        assert rep.class_group.full_factors == (1, 1, 1)
        assert rep.class_group.describe() == "Z"
        assert rep.to_dict()["trivial"] is False

    def test_five_point_threedim_fixture(self):
        rep = analyze(fixture("EX38"))
        assert rep.class_group.describe() == "Z^2"
        assert len(rep.polytope.facets) == 6
        assert rep.segre is not None
        assert rep.segre.tag == "NOT_APPLICABLE"

    def test_even_segment(self):
        rep = analyze(dilate(simplex(1), 2))
        assert rep.class_group.describe() == "Z/2"
        assert rep.to_dict()["compressed"] is False

    def test_point_is_trivial(self):
        rep = analyze(Polytope([(5, 5)]), name="pt")
        assert rep.to_dict()["trivial"] is True
        assert rep.to_dict()["warnings"] == []
        assert rep.class_group is None
        assert rep.unit_chain is None

    def test_point_renders_as_trivial(self):
        assert analyze(Polytope([(5, 5)]), name="pt").render_text() == (
            "polytope pt\n"
            "  ambient dimension : 2\n"
            "  dimension         : 0\n"
            "  vertices          : 1\n"
            "  lattice points    : 1\n"
            "  (single point; nothing further to analyze)\n")

    def test_non_normal_presentation_is_formal_with_warning(self):
        rep = analyze(edge_polytope(two_triangles_bridge()), name="bridge")
        assert rep.normal is False
        assert rep.to_dict()["class_group"]["formal"] is True
        assert any("not normal" in w for w in rep.to_dict()["warnings"])

    def test_segre_only_for_01_polytopes(self):
        assert analyze(fixture("P2")).segre is None
        assert analyze(cube(2)).segre.tag == "SEGRE"

    def test_failed_chain_certificate_is_an_internal_fault(self, monkeypatch, tmp_path, capsys):
        def wrong_point(p):
            chain = k_number(p)
            return UnitChain((p.vertices[0],) + chain.points[1:], chain.facet_ids)

        p = fixture("P1")
        assert not validate_unit_chain(p, wrong_point(p))
        monkeypatch.setattr(report, "k_number", wrong_point)
        with pytest.raises(InvariantViolation, match="unit chain certificate"):
            analyze(p)
        path = tmp_path / "p1.json"
        path.write_text(json.dumps({"vertices": [list(v) for v in p.vertices]}))
        assert cli.main(["analyze", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invariant violation: unit chain certificate")


class TestDict:
    def test_internal_consistency(self):
        d = analyze(fixture("EX38")).to_dict()
        cg = d["class_group"]
        assert cg["free_rank"] == len(d["facets"]) - (d["dim"] + 1)
        assert d["torsionfree"] == all(s == 1 for s in cg["invariant_factors"])
        assert d["num_lattice_points"] == len(d["lattice_points"])
        assert d["num_vertices"] == len(d["vertices"])

    def test_facet_entries(self):
        d = analyze(fixture("P2")).to_dict()
        assert len(d["facets"]) == 4
        for f in d["facets"]:
            assert set(f) >= {"id", "normal", "offset", "divisor", "values", "vertex_indices"}

    def test_class_matrix_labels(self):
        d = analyze(dilate(simplex(1), 2)).to_dict()
        assert d["class_matrix"] in ([[0, 1, 2], [2, 1, 0]], [[2, 1, 0], [0, 1, 2]])

    def test_trivial_report_has_no_group_data(self):
        d = analyze(Polytope([(0, 0, 0)])).to_dict()
        assert d["trivial"] is True
        assert "class_group" not in d


class TestSerialization:
    def test_json_is_deterministic(self):
        a = analyze(fixture("P1"), name="x").to_json()
        b = analyze(fixture("P1"), name="x").to_json()
        assert a == b
        assert a.endswith("\n")

    def test_json_round_trips(self):
        doc = json.loads(analyze(fixture("P3"), name="P3").to_json())
        assert doc["name"] == "P3"
        assert doc["class_group"]["description"] == "Z"

    def test_text_report_mentions_the_essentials(self):
        txt = analyze(fixture("P3"), name="P3").render_text()
        assert "P3" in txt
        assert "class group" in txt
        assert "Z" in txt
        assert "normal" in txt

    def test_matrix_printed_only_for_small_polytopes(self):
        small = analyze(simplex(2)).render_text()
        assert "class matrix" in small
        # 45 lattice points is over the print limit
        big = analyze(dilate(simplex(2), 8)).render_text()
        assert "class matrix" not in big


class TestJsonEmitter:
    """``to_json`` writes the bytes of ``json.dumps(indent=2, sort_keys=True)``."""

    @settings(deadline=None, max_examples=100)
    @given(_json_trees)
    def test_matches_the_stdlib_on_json_trees(self, doc):
        assert _dumps(doc, "\n") + "\n" == oracles.json_report_by_stdlib(doc)

    def test_other_containers_raise_type_error(self):
        for doc in ({"a": {1, 2}}, [frozenset()], {"a": [1, b"x"]}):
            with pytest.raises(TypeError):
                oracles.json_report_by_stdlib(doc)
            with pytest.raises(TypeError):
                _dumps(doc, "\n")

    def test_reports_match_the_stdlib(self):
        workloads = benchmark_workloads()
        named = [(name, fixture(name)) for name in fixture_names()]
        named += [(f"r3-{i}", p) for i, p in enumerate(all_01_polytopes(3))]
        named += [(name, Polytope(v)) for name, v in workloads.deep_corpus().items()]
        named += [(f"wide-0-{i}", Polytope(v)) for i, v in enumerate(workloads.wide_pool(0))]
        assert len(named) == 4 + 151 + 11 + 63
        for name, p in named:
            rep = analyze(p, name=name)
            assert rep.to_json() == oracles.json_report_by_stdlib(rep.to_dict()), name


def test_reports_and_checks_read_value_rows_only():
    # A facet carries its values as the aligned row alone, and has no
    # __dict__, so nothing on the analyze and check paths can cache another
    # representation on it.
    fields = ("vertex_set", "row", "int_form", "divisor")
    named = [(name, fixture(name)) for name in fixture_names()]
    named += [(name, Polytope(v)) for name, v in benchmark_workloads().deep_corpus().items()]
    for name, p in named:
        rep = analyze(p, name=name)
        rep.to_json()
        polytope_checks(p)
        if p.dim >= 1:
            assert all(type(f)._fields == fields and not hasattr(f, "__dict__")
                       for f in p.facets), name


def test_text_reports_keep_their_bytes():
    # One sha256 over render_text of the fixtures, the deep corpus, the
    # empty simplices (all apexes) and a double pyramid over a product.
    named = [(name, fixture(name)) for name in fixture_names()]
    named += [(name, Polytope(v)) for name, v in benchmark_workloads().deep_corpus().items()]
    named += [(f"simplex{n}", simplex(n)) for n in range(1, 5)]
    named += [("double-pyramid-d1xd3", pyramid(pyramid(product(simplex(1), simplex(3)))))]
    h = hashlib.sha256()
    for name, p in named:
        h.update(analyze(p, name=name).render_text().encode())
    assert h.hexdigest() == "23edee544a1724cbc0d042bc9f85759bf433cdb56f2a60aed8b4ef31154812e4"


@pytest.mark.parametrize("workload, ops", [("analyze-deep", 11), ("analyze-wide", 63),
                                           ("verify-r4", 3)])
def test_cli_reproduces_the_benchmark_pins(tmp_path, workload, ops):
    """``cli.main`` writes the bytes ``perfbench/reference.json`` pins, at seed 0."""
    workloads = benchmark_workloads()
    w = workloads.make(workload, 0, tmp_path)
    # An analyze workload's ops are one pass over its inputs; each verify-r4
    # op draws its own seed, and the first three stand for the hundred pinned.
    if workload != "verify-r4":
        assert w.pass_ops == ops
    for i in range(ops):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(w.argv(i)) == 0
        expected = w.expected(w.key(i))
        assert expected is not None and workloads.sha256(out.getvalue()) == expected, w.key(i)
