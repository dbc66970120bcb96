"""Command line behavior: file formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polyclass import InvariantViolation, Polytope, cube, fixture, pyramid, random_01_polytopes
from polyclass import analysis, cli


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one command line, usage errors included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def last_line(text):
    return text.splitlines()[-1] if text else ""


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestPolytopeFiles:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "square.json"
        cli.write_polytope_file(str(target), "square", cube(2))
        name, verts = cli.load_polytope_file(str(target))
        assert name == "square"
        assert Polytope(verts) == cube(2)

    def test_name_defaults_to_file_stem(self, tmp_path):
        path = write_json(tmp_path / "mything.json", {"vertices": [[0], [1]]})
        name, _ = cli.load_polytope_file(path)
        assert name == "mything"

    def test_rejects_floats(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"vertices": [[0, 0], [1.0, 0], [0, 1]]})
        with pytest.raises(cli.FileFormatError) as err:
            cli.load_polytope_file(path)
        assert "vertex 1" in str(err.value)

    def test_rejects_booleans(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"vertices": [[0, 0], [True, 0]]})
        with pytest.raises(cli.FileFormatError):
            cli.load_polytope_file(path)

    def test_rejects_missing_vertices(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"name": "x"})
        with pytest.raises(cli.FileFormatError):
            cli.load_polytope_file(path)

    @pytest.mark.parametrize("doc, message", [
        ([[0], [1]], "top level must be an object"),
        ({"name": 3, "vertices": [[0], [1]]}, '"name" must be a string'),
        ({"vertices": []}, '"vertices" must be a nonempty array'),
        ({"vertices": [[0], 1]}, "vertex 1 must be an array"),
    ], ids=["not-an-object", "name-not-a-string", "no-vertices", "vertex-not-an-array"])
    def test_rejects_a_misshapen_polytope(self, tmp_path, doc, message):
        path = write_json(tmp_path / "bad.json", doc)
        with pytest.raises(cli.FileFormatError) as err:
            cli.load_polytope_file(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("doc, message", [
        ([], "top level must be an object"),
        ({"edges": []}, '"n": expected an integer, got None'),
        ({"n": 2, "edges": {}}, '"edges" must be an array'),
        ({"n": 2, "edges": [[0, 1], [0, 1, 1]]}, "edge 1 must be a pair"),
        ({"n": 2, "edges": [[0, 1], 0]}, "edge 1 must be a pair"),
        ({"n": 2, "edges": [[0, 1.0]]}, "edge 0: expected an integer, got 1.0"),
        ({"n": 2, "edges": [[0, 2]]}, "edge (0, 2) out of range"),
    ], ids=["not-an-object", "no-size", "edges-not-an-array", "triple", "scalar",
            "float", "out-of-range"])
    def test_rejects_a_misshapen_graph(self, tmp_path, doc, message):
        path = write_json(tmp_path / "bad.json", doc)
        with pytest.raises(cli.FileFormatError) as err:
            cli.load_graph_file(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("doc, message", [
        ({"n": 2}, '"relations" must be an array'),
        ({"n": 2, "relations": [[1]]}, "relation 0 must be a pair"),
        ({"n": 2, "relations": [[0, 1], [1, 0]]}, "cycle between 0 and 1: not a partial order"),
    ], ids=["no-relations", "single", "cycle"])
    def test_rejects_a_misshapen_poset(self, tmp_path, doc, message):
        path = write_json(tmp_path / "bad.json", doc)
        with pytest.raises(cli.FileFormatError) as err:
            cli.load_poset_file(path)
        assert str(err.value) == f"{path}: {message}"

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": [[0], [1]\n')
        with pytest.raises(cli.FileFormatError) as err:
            cli.load_polytope_file(str(path))
        msg = str(err.value)
        assert "line" in msg and "column" in msg


class TestAnalyzeCommand:
    def test_text_output(self, capsys, tmp_path):
        path = write_json(tmp_path / "p3.json",
                          {"name": "P3", "vertices": [[0, 0], [1, 4], [2, 5], [3, 1]]})
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "normal" in out
        assert "Z" in out

    def test_json_output_matches_library(self, capsys, tmp_path):
        path = write_json(tmp_path / "p3.json",
                          {"name": "P3", "vertices": [[0, 0], [1, 4], [2, 5], [3, 1]]})
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["class_group"]["invariant_factors"] == [1, 1, 1]
        assert doc["normal"] is True
        assert doc["unit_chain"]["k"] == 1

    def test_json_output_is_byte_stable(self, capsys, tmp_path):
        path = write_json(tmp_path / "p1.json",
                          {"vertices": [[0, 0], [1, 0], [0, 1], [2, 1], [1, 2], [2, 2]]})
        code1, out1, _ = run(capsys, "analyze", path, "--json")
        code2, out2, _ = run(capsys, "analyze", path, "--json")
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    def test_json_escapes_the_name_as_before(self, capsys, tmp_path):
        path = write_json(tmp_path / "odd.json", {"name": 'say "hi"\nto \u00e9',
                                                  "vertices": [[0, 0], [1, 4], [2, 5], [3, 1]]})
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == 0
        assert '  "name": "say \\"hi\\"\\nto \\u00e9",\n' in out
        # sha256 of the bytes written by the json.dumps renderer.
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "478e9cd80cd8df7312e7b8f2c2bd916fb363fb9f89bfbe330d334cf88e9b71d9")

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/nowhere.json")
        assert code == 1
        assert "error" in err

    def test_malformed_json_exits_one(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "line 1" in err

    @pytest.mark.parametrize("content, reason", [
        (b'{"vertices": [[0], [\xff]]}', "can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        (b'{"vertices": [[0], [' + b"1" * 5000 + b']]}', "Exceeds the limit"),
    ], ids=["not-utf8", "deep-nesting", "long-integer"])
    def test_undecodable_file_exits_one(self, capsys, tmp_path, content, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ")
        assert reason in err

    def test_non_vertex_point_exits_one(self, capsys, tmp_path):
        path = write_json(tmp_path / "fat.json", {"vertices": [[0], [1], [2]]})
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "vertex" in err

    def test_invariant_violation_exits_two(self, capsys, tmp_path, monkeypatch):
        def boom(p, name="polytope"):
            raise InvariantViolation("synthetic failure")
        monkeypatch.setattr(cli, "analyze", boom)
        path = write_json(tmp_path / "sq.json", {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]})
        code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert "invariant violation" in err

    def test_library_value_error_is_not_an_input_error(self, tmp_path, monkeypatch):
        def boom(p, name="polytope"):
            raise ValueError("synthetic library fault")
        monkeypatch.setattr(cli, "analyze", boom)
        path = write_json(tmp_path / "sq.json", {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]})
        with pytest.raises(ValueError, match="synthetic library fault"):
            cli.main(["analyze", path])


# The options each make constructor reads, besides --name and -o, and a
# value for each option; nothere.json names no file.
READS = {"simplex": (), "cube": (), "fixture": (), "product": ("--of",),
         "pyramid": ("--of", "--lift"), "dilate": ("--of", "--factor"),
         "order": ("--poset",), "stableset": ("--graph",), "edge": ("--graph",)}
STRAY = {"--of": "cube:1", "--lift": "5", "--factor": "9",
         "--graph": "nothere.json", "--poset": "nothere.json"}


class TestMakeCommand:
    def test_simplex(self, capsys, tmp_path):
        out_file = tmp_path / "t.json"
        code, out, _ = run(capsys, "make", "simplex", "2", "-o", str(out_file))
        assert code == 0
        assert "wrote" in out
        _, verts = cli.load_polytope_file(str(out_file))
        assert Polytope(verts) == Polytope([(0, 0), (1, 0), (0, 1)])

    def test_fixture_vertex_count(self, capsys, tmp_path):
        out_file = tmp_path / "p1.json"
        code, _, _ = run(capsys, "make", "fixture", "P1", "-o", str(out_file))
        assert code == 0
        _, verts = cli.load_polytope_file(str(out_file))
        assert len(verts) == 6

    def test_product_of_specs(self, capsys, tmp_path):
        out_file = tmp_path / "prism.json"
        code, _, _ = run(capsys, "make", "product", "--of", "simplex:1", "simplex:2",
                         "-o", str(out_file))
        assert code == 0
        _, verts = cli.load_polytope_file(str(out_file))
        assert len(verts) == 6
        assert len(verts[0]) == 3

    def test_pyramid_with_lift(self, capsys, tmp_path):
        out_file = tmp_path / "pyr.json"
        code, _, _ = run(capsys, "make", "pyramid", "--of", "cube:2", "--lift", "2",
                         "-o", str(out_file))
        assert code == 0
        _, verts = cli.load_polytope_file(str(out_file))
        assert (0, 0, 2) in {tuple(v) for v in verts}

    def test_dilate_file_input(self, capsys, tmp_path):
        seg = write_json(tmp_path / "seg.json", {"vertices": [[0], [1]]})
        out_file = tmp_path / "seg2.json"
        code, _, _ = run(capsys, "make", "dilate", "--of", seg, "--factor", "3",
                         "-o", str(out_file))
        assert code == 0
        _, verts = cli.load_polytope_file(str(out_file))
        assert sorted(tuple(v) for v in verts) == [(0,), (3,)]

    def test_edge_polytope_from_graph_file(self, capsys, tmp_path):
        graph = write_json(tmp_path / "bridge.json", {
            "n": 7,
            "edges": [[0, 1], [0, 2], [1, 2], [2, 3], [3, 4], [4, 5], [4, 6], [5, 6]],
        })
        out_file = tmp_path / "edges.json"
        code, _, _ = run(capsys, "make", "edge", "--graph", graph, "-o", str(out_file))
        assert code == 0
        _, verts = cli.load_polytope_file(str(out_file))
        assert len(verts) == 8
        assert len(verts[0]) == 7

    def test_order_polytope_warns_about_closure(self, capsys, tmp_path):
        poset = write_json(tmp_path / "chain.json", {"n": 3, "relations": [[0, 1], [1, 2]]})
        out_file = tmp_path / "order.json"
        code, _, err = run(capsys, "make", "order", "--poset", poset, "-o", str(out_file))
        assert code == 0
        assert "closure" in err

    def test_order_polytope_closed_input_is_quiet(self, capsys, tmp_path):
        poset = write_json(tmp_path / "chain.json",
                           {"n": 3, "relations": [[0, 1], [1, 2], [0, 2]]})
        out_file = tmp_path / "order.json"
        code, _, err = run(capsys, "make", "order", "--poset", poset, "-o", str(out_file))
        assert code == 0
        assert err == ""

    def test_no_arguments_names_only_the_required_ones(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["make"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert last_line(err) == "polyclass make: error: the following arguments are required: CTOR"

    def test_unknown_constructor_exits_one(self, capsys, tmp_path):
        code, out, err = run(capsys, "make", "frobnicate", "-o", str(tmp_path / "x.json"))
        assert (code, out) == (1, "")
        assert last_line(err).startswith(
            "polyclass make: error: argument CTOR: invalid choice: 'frobnicate'")

    def test_bad_graph_file_exits_one(self, capsys, tmp_path):
        graph = write_json(tmp_path / "loop.json", {"n": 2, "edges": [[0, 0]]})
        code, _, err = run(capsys, "make", "edge", "--graph", graph,
                           "-o", str(tmp_path / "x.json"))
        assert code == 1

    def test_cycle_in_poset_exits_one(self, capsys, tmp_path):
        poset = write_json(tmp_path / "cyc.json", {"n": 2, "relations": [[0, 1], [1, 0]]})
        code, _, err = run(capsys, "make", "order", "--poset", poset,
                           "-o", str(tmp_path / "x.json"))
        assert code == 1

    def test_unwritable_output_exits_one(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.json"
        code, _, err = run(capsys, "make", "simplex", "2", "-o", str(out_file))
        assert code == 1
        assert err == f"error: {out_file}: No such file or directory\n"

    def test_custom_name_is_stored(self, capsys, tmp_path):
        out_file = tmp_path / "c.json"
        code, _, _ = run(capsys, "make", "cube", "2", "--name", "flatland",
                         "-o", str(out_file))
        assert code == 0
        name, _ = cli.load_polytope_file(str(out_file))
        assert name == "flatland"

    # argparse checks every arity but product's: nargs cannot require two
    # or more, so that one message is polyclass's own and printed alone.  The
    # usage line above an argparse message wraps differently across Python
    # versions, so only argparse's message line is matched.
    @pytest.mark.parametrize("argv, message, own", [
        (["simplex"], "the following arguments are required: SIZE", False),
        (["cube", "1", "2"], "unrecognized arguments: 2", False),
        (["fixture"], "the following arguments are required: NAME", False),
        (["product", "--of", "cube:1"], "product needs at least two --of specs", True),
        (["product"], "the following arguments are required: --of", False),
        (["pyramid", "--of", "cube:1", "cube:1"], "unrecognized arguments: cube:1", False),
        (["dilate"], "the following arguments are required: --of", False),
        (["order"], "the following arguments are required: --poset", False),
        (["stableset"], "the following arguments are required: --graph", False),
        (["edge"], "the following arguments are required: --graph", False),
    ], ids=["simplex", "cube", "fixture", "product-one", "product-none", "pyramid-two",
            "dilate", "order", "stableset", "edge"])
    def test_arity_error_exits_one(self, capsys, tmp_path, argv, message, own):
        out_file = tmp_path / "x.json"
        code, out, err = run(capsys, "make", *argv, "-o", str(out_file))
        assert (code, out) == (1, "")
        if own:
            assert err == f"error: {message}\n"
        else:
            assert last_line(err).endswith(f"error: {message}")
        assert not out_file.exists()

    @staticmethod
    def valid_argv(ctor, tmp_path):
        """A command line that ``make ctor`` accepts, the -o option included."""
        graph = write_json(tmp_path / "g.json", {"n": 2, "edges": [[0, 1]]})
        poset = write_json(tmp_path / "p.json", {"n": 2, "relations": [[0, 1]]})
        own = {"simplex": ["2"], "cube": ["2"], "fixture": ["P1"],
               "product": ["--of", "simplex:1", "simplex:1"], "pyramid": ["--of", "cube:1"],
               "dilate": ["--of", "cube:1"], "order": ["--poset", poset],
               "stableset": ["--graph", graph], "edge": ["--graph", graph]}[ctor]
        return [ctor, *own, "-o", str(tmp_path / "x.json")]

    @pytest.mark.parametrize("ctor, option", [
        (ctor, option) for ctor, reads in READS.items() for option in STRAY
        if option not in reads])
    def test_option_the_constructor_does_not_read_exits_one(self, capsys, tmp_path,
                                                             ctor, option):
        # Refused as stray before anything is opened, so nothere.json is never read.
        # Any fault in the rest of the command line would change the message
        # below, so it also shows that ``valid_argv`` is valid.
        argv = self.valid_argv(ctor, tmp_path)
        code, out, err = run(capsys, "make", *argv, option, STRAY[option])
        assert (code, out) == (1, "")
        assert last_line(err).endswith(
            f"error: unrecognized arguments: {option} {STRAY[option]}")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("ctor", list(READS))
    def test_constructor_help_lists_only_its_options(self, capsys, ctor):
        code, out, _ = run(capsys, "make", ctor, "-h")
        assert code == 0
        assert out.startswith(f"usage: polyclass make {ctor} ")
        for option in STRAY:
            assert (option in out) == (option in READS[ctor]), option
        assert "--name" in out and "--output" in out

    def test_options_before_the_constructor_are_refused(self, capsys, tmp_path):
        out_file = tmp_path / "x.json"
        code, out, err = run(capsys, "make", "-o", str(out_file), "simplex", "2")
        assert (code, out) == (1, "")
        assert "error:" in last_line(err)
        assert not out_file.exists()

    def test_stable_set_polytope_from_graph_file(self, capsys, tmp_path):
        graph = write_json(tmp_path / "path.json", {"n": 3, "edges": [[0, 1], [1, 2]]})
        out_file = tmp_path / "stab.json"
        code, out, _ = run(capsys, "make", "stableset", "--graph", graph, "-o", str(out_file))
        assert code == 0
        assert out == f"wrote {out_file}: stableset, 5 vertices in R^3\n"
        _, verts = cli.load_polytope_file(str(out_file))
        assert sorted(verts) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]

    def test_fixture_spec(self, capsys, tmp_path):
        out_file = tmp_path / "pyr.json"
        code, out, _ = run(capsys, "make", "pyramid", "--of", "fixture:P1", "-o", str(out_file))
        assert code == 0
        assert out == f"wrote {out_file}: pyramid_fixture_P1, 7 vertices in R^3\n"
        _, verts = cli.load_polytope_file(str(out_file))
        assert Polytope(verts) == pyramid(fixture("P1"))

    @pytest.mark.parametrize("spec, message", [
        ("frob:1", "cannot resolve 'frob:1': expected simplex:N, cube:N, fixture:NAME, "
                   "or a path to a polytope JSON file"),
        ("cube:x", "bad numeric argument in spec 'cube:x'"),
        ("simplex", "bad numeric argument in spec 'simplex'"),
        ("cube:0", "cube dimension must be positive"),
        ("fixture:Q9", "unknown fixture 'Q9'"),
    ], ids=["unresolvable", "bad-numeric", "no-argument", "refused-size", "unknown-fixture"])
    def test_bad_spec_exits_one(self, capsys, tmp_path, spec, message):
        code, out, err = run(capsys, "make", "dilate", "--of", spec,
                             "-o", str(tmp_path / "x.json"))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.endswith("\n")

    @pytest.mark.parametrize("argv, message", [
        (["simplex", "two"], "bad numeric argument in spec 'two'"),
        (["simplex", "-1"], "simplex dimension must be nonnegative"),
        (["fixture", "Q9"], "unknown fixture 'Q9'"),
    ], ids=["bad-numeric", "refused-size", "unknown-fixture"])
    def test_bad_parameter_exits_one(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, "make", *argv, "-o", str(tmp_path / "x.json"))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.endswith("\n")

    @pytest.mark.parametrize("size, name", [("02", "simplex_2"), (" +3", "simplex_3")])
    def test_size_is_named_as_parsed(self, capsys, tmp_path, size, name):
        out_file = tmp_path / "s.json"
        code, out, _ = run(capsys, "make", "simplex", size, "-o", str(out_file))
        assert code == 0
        assert cli.load_polytope_file(str(out_file))[0] == name
        assert out.startswith(f"wrote {out_file}: {name}, ")


class TestVerifyCommand:
    def test_fixtures_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixtures")
        assert code == 0
        assert "result: OK" in out
        assert "verified 4 polytope(s)" in out

    def test_default_family_is_fixtures(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "verified 4 polytope(s)" in out

    def test_exhaustive_two_dimensional(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "2", "--exhaustive")
        assert code == 0
        assert "verified 5 polytope(s)" in out

    def test_exhaustive_three_dimensional_table(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "3", "--exhaustive")
        assert code == 0
        assert out == (
            "verified 151 polytope(s)\n"
            "check                             pass   fail   skip\n"
            "unit_chain_factors_one             151      0      0\n"
            "chain_length_bound                 151      0      0\n"
            "full_chain_torsionfree             151      0      0\n"
            "compressed_normal_torsionfree      151      0      0\n"
            "facet_count_iff_class_z            151      0      0\n"
            "few_facets_normal_torsionfree      151      0      0\n"
            "result: OK\n")

    def test_sampled_run_is_reproducible(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--dim", "3", "--samples", "12", "--seed", "7")
        code2, out2, _ = run(capsys, "verify", "--dim", "3", "--samples", "12", "--seed", "7")
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    def test_fixtures_can_join_a_family(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "2", "--exhaustive", "--fixtures")
        assert code == 0
        assert "verified 9 polytope(s)" in out

    @pytest.mark.parametrize("argv, message", [
        (["--seed", "5"], "--seed needs --samples"),
        (["--seed", "5", "--exhaustive"], "--seed needs --samples"),
        (["--dim", "7"], "--dim needs --exhaustive or --samples"),
        (["--dim", "2", "--fixtures"], "--dim needs --exhaustive or --samples"),
    ], ids=["seed", "seed-exhaustive", "dim", "dim-fixtures"])
    def test_option_without_its_family_exits_one(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_dim_zero_reaches_the_range_error(self, capsys):
        code, out, err = run(capsys, "verify", "--dim", "0", "--exhaustive")
        assert (code, out) == (1, "")
        assert err == "error: exhaustive enumeration supported for dimensions 1..4\n"

    def test_exhaustive_guard_exits_one(self, capsys):
        code, _, err = run(capsys, "verify", "--dim", "9", "--exhaustive")
        assert code == 1

    def test_sampling_guard_exits_one(self, capsys):
        code, out, err = run(capsys, "verify", "--dim", "12", "--samples", "1")
        assert code == 1
        assert out == ""
        assert err == "error: sampling supported for dimensions 1..8\n"

    def test_negative_sample_count_exits_one(self, capsys):
        code, out, err = run(capsys, "verify", "--dim", "3", "--samples", "-2")
        assert code == 1
        assert out == ""
        assert "sample count must be nonnegative" in err

    def test_zero_samples_is_an_empty_family(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "3", "--samples", "0")
        assert code == 0
        assert "verified 0 polytope(s)" in out

    def test_failed_check_exits_two(self, capsys, monkeypatch):
        def one_failure(p):
            return {name: name != analysis.CHECK_NAMES[0] for name in analysis.CHECK_NAMES}
        monkeypatch.setattr(analysis, "polytope_checks", one_failure)
        code, out, _ = run(capsys, "verify", "--fixtures")
        assert code == 2
        assert "result: FAIL" in out
        assert f"counterexample for {analysis.CHECK_NAMES[0]}" in out

    def test_counterexample_is_labelled_by_its_first_occurrence(self, capsys, monkeypatch):
        samples = list(random_01_polytopes(2, 6, 0))
        repeated = next(p for i, p in enumerate(samples) if p in samples[:i])
        first = samples.index(repeated)
        assert first == 1 and samples.count(repeated) == 3

        def fails_on_repeated(p):
            return {name: name != analysis.CHECK_NAMES[0] or p != repeated
                    for name in analysis.CHECK_NAMES}
        monkeypatch.setattr(analysis, "polytope_checks", fails_on_repeated)
        code, out, _ = run(capsys, "verify", "--dim", "2", "--samples", "6", "--seed", "0")
        assert code == 2
        assert (f"counterexample for {analysis.CHECK_NAMES[0]} "
                f"(sample dim 2 #{first} (seed 0)): vertices") in out


class TestMain:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", [
        ["verify", "--dim", "abc"],
        ["analyze"],
        ["verify", "--samples", "3", "--exhaustive"],
        ["frobnicate"],
        [],
    ], ids=["bad-int", "missing-file", "exclusive-options", "unknown-command", "no-command"])
    def test_usage_error_exits_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 1
        assert out.out == ""
        assert "usage: polyclass" in out.err and "error:" in out.err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        assert "usage: polyclass verify" in capsys.readouterr().out


class TestModuleEntryPoint:
    """``python -m polyclass`` from a checkout, in a child process."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        return subprocess.run([sys.executable, "-m", "polyclass", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_verify_runs(self):
        proc = self.run_module("verify", "--dim", "2", "--exhaustive")
        assert proc.returncode == 0, proc.stderr
        assert "verified 5 polytope(s)" in proc.stdout
        assert proc.stdout.rstrip().endswith("result: OK")

    def test_usage_error_exits_one(self):
        proc = self.run_module("verify", "--dim", "abc")
        assert proc.returncode == 1
        assert "invalid int value" in proc.stderr
