"""Tests of the benchmark's tracer, counters and output checks.

    python3 -m pytest perfbench

The counters are deterministic, so they are pinned exactly on small
inputs; an algorithmic change to a layer shows here as a changed count.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from polyclass import Polytope, analysis, cli, cube, intlinalg, report  # noqa: E402
from polyclass import polytope as polytope_mod  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

CORPUS = workloads.deep_corpus()


def traced(fn, *args):
    tracer = Tracer()
    with tracer.install():
        fn(*args)
    return tracer


def test_cube4_hull_counters():
    t = traced(cube, 4)
    assert t.counts["polytope.hull_subsets"] == 1820
    assert t.counts["polytope.facets_found"] == 8
    assert t.calls["polytope.hull"] == 1


def test_birkhoff_b3_point_and_normality_counters():
    p = Polytope(CORPUS["birkhoff-b3"])
    t = traced(lambda: p.lattice_points)
    assert t.counts["polytope.box_points"] == 2 ** 9
    assert t.counts["polytope.points_kept"] == 6
    t = traced(lambda: analysis.is_normal(p))
    assert t.counts["analysis.normal_box_points"] == 3 ** 9 + 4 ** 9
    assert t.counts["analysis.normal_calls"] == 1


def test_segre_analyze_repeats_normality_and_group():
    p = Polytope(CORPUS["pyramid-d2xd2"])
    t = traced(lambda: report.analyze(p))
    assert t.calls["report.analyze"] == 1
    assert report.analyze(p).segre.tag == "SEGRE"
    assert t.counts["analysis.normal_calls"] == 2
    assert t.counts["classgroup.group_calls"] == 2
    assert t.counts["classgroup.matrix_calls"] == 3


def test_self_times_add_up_to_the_root_spans(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"name": "p", "vertices": CORPUS["pyramid-d2xd2"]}))
    tracer = Tracer()
    with tracer.install(), redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", str(path), "--json"]) == 0
    assert tracer.calls["cli"] == 1
    assert tracer.counts["report.json_bytes"] > 0
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.wall, rel=1e-9)
    assert not tracer.spans


def test_install_restores_the_originals():
    before = (cli.main, analysis.in_row_lattice, intlinalg.snf, Polytope.__init__,
              Polytope.__dict__["_hull"].func, Polytope._scaled_lattice_points,
              polytope_mod.hnf_row_lattice)
    with Tracer().install():
        assert analysis.in_row_lattice is not before[1]
        assert polytope_mod.hnf_row_lattice is not before[6]
    after = (cli.main, analysis.in_row_lattice, intlinalg.snf, Polytope.__init__,
             Polytope.__dict__["_hull"].func, Polytope._scaled_lattice_points,
             polytope_mod.hnf_row_lattice)
    assert after == before


def _wide_report(verts):
    return report.analyze(Polytope(verts), name="w").to_json()


def test_wide_check_accepts_good_and_rejects_corrupted_reports():
    verts = workloads.wide_pool(3)[0]
    text = _wide_report(verts)
    assert workloads.check_wide_report(text, verts)
    doc = json.loads(text)
    doc["facets"][0]["offset"] += 1
    assert not workloads.check_wide_report(json.dumps(doc), verts)
    # Replace facet 0 by the sum of facets 0 and 1: still supporting, and
    # consistent with its own zeros and values, but not a facet.
    doc = json.loads(text)
    f, g = doc["facets"][0], doc["facets"][1]
    f["normal"] = [a + b for a, b in zip(f["normal"], g["normal"])]
    f["offset"] += g["offset"]
    f["divisor"] = 1
    raw = [sum(a * x for a, x in zip(f["normal"], v)) + f["offset"] for v in doc["vertices"]]
    f["values"] = raw
    f["vertex_indices"] = [i for i, v in enumerate(raw) if v == 0]
    doc["class_matrix"][0] = raw
    assert not workloads.check_wide_report(json.dumps(doc), verts)


def test_verify_check_rejects_a_failed_check():
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["verify", "--dim", "4", "--samples", str(workloads.VERIFY_SAMPLES)])
    text = out.getvalue()
    assert workloads.check_verify_table(text)
    bad = text.replace(f"{workloads.VERIFY_SAMPLES}      0      0", "99      1      0", 1)
    assert bad != text and not workloads.check_verify_table(bad)


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)
