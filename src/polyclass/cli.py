"""Command line interface: analyze, make, verify.

``analyze`` reads a polytope JSON file and prints the full report.
``make`` builds a polytope from a constructor and writes it to a file.
``verify`` runs the implication battery over fixture / exhaustive /
sampled families and reports a pass-fail table.

Exit codes: 0 success, 1 usage or input error (a bad command line,
malformed JSON, floats where integers are required, points that are not
vertices, an input or ``make -o`` file that cannot be opened:
``error: <path>: <reason>``),
2 internal invariant violation, such as a unit-chain certificate that
fails its revalidation, or a failed ``verify`` check (either way a
computed result contradicts the theory).  Validation errors count as
bad input only where the input becomes polytopes (``analyze``'s
``Polytope``, all of ``make``, the ``verify`` family); any other
exception propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache
from typing import Any, Iterator, Sequence

from . import families
from .analysis import CHECK_NAMES, verify_family
from .errors import InvariantViolation
from .polytope import Polytope
from .report import analyze

class FileFormatError(ValueError):
    """An input file failed to parse or validate."""


@contextmanager
def _input_boundary() -> Iterator[None]:
    """Report a validation error raised while reading the input as bad input."""
    try:
        yield
    except (ValueError, TypeError) as e:
        raise FileFormatError(str(e)) from e


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise FileFormatError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise FileFormatError(f"{path}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (RecursionError, ValueError) as e:
        # Nesting past the recursion limit, or an int over the digit limit.
        raise FileFormatError(f"{path}: {e}") from None


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def load_polytope_file(path: str) -> tuple[str, list[tuple[int, ...]]]:
    """Read {"name": str, "vertices": [[int, ...], ...]}; floats are rejected."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    name = data.get("name", os.path.splitext(os.path.basename(path))[0])
    if not isinstance(name, str):
        raise FileFormatError(f"{path}: \"name\" must be a string")
    verts = data.get("vertices")
    if not isinstance(verts, list) or not verts:
        raise FileFormatError(f"{path}: \"vertices\" must be a nonempty array")
    out = []
    for i, row in enumerate(verts):
        if not isinstance(row, list):
            raise FileFormatError(f"{path}: vertex {i} must be an array")
        out.append(tuple(_require_int(v, f"{path}: vertex {i}, coordinate {j}")
                         for j, v in enumerate(row)))
    return name, out


def write_polytope_file(path: str, name: str, p: Polytope) -> None:
    doc = {"name": name, "vertices": [list(v) for v in p.vertices]}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise FileFormatError(f"{path}: {e.strerror or e}") from None


def _load_pairs(path: str, key: str, noun: str) -> tuple[int, list[tuple[int, int]]]:
    """Read {"n": int, <key>: [[int, int], ...]}; ``noun`` names one pair in errors."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    n = _require_int(data.get("n"), f"{path}: \"n\"")
    items = data.get(key)
    if not isinstance(items, list):
        raise FileFormatError(f"{path}: \"{key}\" must be an array")
    pairs = []
    for i, e in enumerate(items):
        if not isinstance(e, list) or len(e) != 2:
            raise FileFormatError(f"{path}: {noun} {i} must be a pair")
        pairs.append(tuple(_require_int(v, f"{path}: {noun} {i}") for v in e))
    return n, pairs


def load_graph_file(path: str) -> families.Graph:
    """Read {"n": int, "edges": [[a, b], ...]}."""
    n, pairs = _load_pairs(path, "edges", "edge")
    try:
        return families.Graph(n, pairs)
    except ValueError as e:
        raise FileFormatError(f"{path}: {e}") from None


def load_poset_file(path: str) -> tuple[families.Poset, bool]:
    """Read {"n": int, "relations": [[a, b], ...]} meaning a <= b.

    Returns the poset and whether the input was already transitively
    closed (the closure is always taken).
    """
    n, pairs = _load_pairs(path, "relations", "relation")
    try:
        poset = families.Poset.from_relations(n, pairs)
    except ValueError as e:
        raise FileFormatError(f"{path}: {e}") from None
    return poset, poset.is_transitively_closed_input(pairs)


_NAMED = {"simplex": "size", "cube": "size", "fixture": "name"}  # what the one parameter is


def _named(kind: str, arg: str, spec: str) -> tuple[str, Polytope]:
    """``(arg as parsed, polytope)`` for simplex N, cube N or fixture NAME; errors quote spec."""
    if kind == "fixture":
        return arg, families.fixture(arg)
    try:
        n = int(arg)
    except ValueError:
        raise FileFormatError(f"bad numeric argument in spec {spec!r}") from None
    return str(n), (families.simplex if kind == "simplex" else families.cube)(n)


def build_from_spec(spec: str) -> Polytope:
    """Resolve a constructor spec: name:arg (simplex:2, cube:3, fixture:P1) or a JSON path."""
    if spec.endswith(".json") or os.path.exists(spec):
        _, verts = load_polytope_file(spec)
        return Polytope(verts)
    kind, _, arg = spec.partition(":")
    if kind not in _NAMED:
        raise FileFormatError(
            f"cannot resolve {spec!r}: expected simplex:N, cube:N, fixture:NAME, "
            f"or a path to a polytope JSON file")
    return _named(kind, arg, spec)[1]


def _cmd_analyze(args: argparse.Namespace) -> int:
    name, verts = load_polytope_file(args.file)
    with _input_boundary():
        p = Polytope(verts)
    rep = analyze(p, name=name)
    if args.json:
        sys.stdout.write(rep.to_json())
    else:
        sys.stdout.write(rep.render_text())
    return 0


@_input_boundary()
def _cmd_make(args: argparse.Namespace) -> int:
    ctor = args.ctor
    params = args.params
    name_parts = [ctor]
    if ctor in _NAMED:
        if len(params) != 1:
            raise FileFormatError(f"{ctor} takes exactly one {_NAMED[ctor]} parameter")
        part, p = _named(ctor, params[0], params[0])
        name_parts.append(part)
    elif ctor == "product":
        if not args.of or len(args.of) < 2:
            raise FileFormatError("product needs at least two --of specs")
        parts = [build_from_spec(s) for s in args.of]
        p = parts[0]
        for q in parts[1:]:
            p = families.product(p, q)
        name_parts.extend(s.replace(":", "_").replace("/", "_") for s in args.of)
    elif ctor == "pyramid":
        if not args.of or len(args.of) != 1:
            raise FileFormatError("pyramid needs exactly one --of spec")
        p = families.pyramid(build_from_spec(args.of[0]), args.lift)
        name_parts.append(args.of[0].replace(":", "_").replace("/", "_"))
    elif ctor == "dilate":
        if not args.of or len(args.of) != 1:
            raise FileFormatError("dilate needs exactly one --of spec")
        p = families.dilate(build_from_spec(args.of[0]), args.factor)
        name_parts.append(args.of[0].replace(":", "_").replace("/", "_"))
        name_parts.append(str(args.factor))
    elif ctor == "order":
        if not args.poset:
            raise FileFormatError("order needs --poset FILE")
        poset, closed = load_poset_file(args.poset)
        if not closed:
            print("warning: relations were not transitively closed; closure taken",
                  file=sys.stderr)
        p = families.order_polytope(poset)
    elif ctor == "stableset":
        if not args.graph:
            raise FileFormatError("stableset needs --graph FILE")
        p = families.stable_set_polytope(load_graph_file(args.graph))
    elif ctor == "edge":
        if not args.graph:
            raise FileFormatError("edge needs --graph FILE")
        p = families.edge_polytope(load_graph_file(args.graph))
    else:
        raise FileFormatError(f"unknown constructor {ctor!r}")
    name = args.name or "_".join(name_parts)
    write_polytope_file(args.output, name, p)
    print(f"wrote {args.output}: {name}, {len(p.vertices)} vertices in R^{p.ambient_dim}")
    return 0


def _family(args: argparse.Namespace, labels: list[str]) -> Iterator[Polytope]:
    """Yield the family ``verify`` checks, appending each member's label to ``labels``."""
    explicit_family = args.exhaustive or args.samples is not None
    with _input_boundary():
        if args.fixtures or not explicit_family:
            for fname in families.fixture_names():
                labels.append(f"fixture {fname}")
                yield families.fixture(fname)
        if args.exhaustive:
            for i, p in enumerate(families.all_01_polytopes(args.dim)):
                labels.append(f"exhaustive dim {args.dim} #{i}")
                yield p
        if args.samples is not None:
            for i, p in enumerate(families.random_01_polytopes(args.dim, args.samples,
                                                               args.seed)):
                labels.append(f"sample dim {args.dim} #{i} (seed {args.seed})")
                yield p


def _cmd_verify(args: argparse.Namespace) -> int:
    # The family is streamed; first_index is the failing member's own
    # position in the stream, so labels[first_index] is its label.
    labels: list[str] = []
    report = verify_family(_family(args, labels))
    width = max(len(n) for n in CHECK_NAMES) + 2
    print(f"verified {report.total} polytope(s)")
    print(f"{'check':<{width}}{'pass':>7}{'fail':>7}{'skip':>7}")
    for o in report.outcomes:
        print(f"{o.name:<{width}}{o.passed:>7}{o.failed:>7}{o.skipped:>7}")
    for o in report.outcomes:
        if o.failed and o.first_counterexample is not None:
            print(f"counterexample for {o.name} ({labels[o.first_index]}): "
                  f"vertices {[list(v) for v in o.first_counterexample.vertices]}")
    print("result:", "OK" if report.ok else "FAIL")
    return 0 if report.ok else 2


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, subparsers too: a bad command line is bad input."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyclass",
        description="Divisor class groups and structural invariants of lattice polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a polytope JSON file")
    pa.add_argument("file", help="path to {\"name\": ..., \"vertices\": [[...]]}")
    pa.add_argument("--json", action="store_true", help="emit the machine-readable report")
    pa.set_defaults(func=_cmd_analyze)

    pm = sub.add_parser("make", help="build a polytope and write it to a file")
    pm.add_argument("ctor", metavar="CTOR",
                    help="one of: simplex, cube, product, pyramid, dilate, "
                         "order, stableset, edge, fixture")
    pm.add_argument("params", nargs="*", default=[],
                    help="positional parameters (size or fixture name)")
    pm.add_argument("--of", nargs="+", metavar="SPEC",
                    help="input polytopes: simplex:N, cube:N, fixture:NAME, or a JSON path")
    pm.add_argument("--lift", type=int, default=1, help="pyramid apex height (default 1)")
    pm.add_argument("--factor", type=int, default=2, help="dilation factor (default 2)")
    pm.add_argument("--poset", help="poset JSON file for the order polytope")
    pm.add_argument("--graph", help="graph JSON file for stableset/edge polytopes")
    pm.add_argument("--name", help="name stored in the output file")
    pm.add_argument("-o", "--output", required=True, help="output polytope JSON file")
    pm.set_defaults(func=_cmd_make)

    pv = sub.add_parser("verify", help="run the implication battery over families")
    pv.add_argument("--dim", type=int, default=3, help="dimension for family generation")
    group = pv.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true",
                       help="all full-dimensional (0,1)-polytopes of the given dimension")
    group.add_argument("--samples", type=int, default=None, metavar="K",
                       help="number of seeded random (0,1)-polytopes")
    pv.add_argument("--seed", type=int, default=0, help="seed for --samples")
    pv.add_argument("--fixtures", action="store_true",
                    help="include the named fixture polytopes (default when no family given)")
    pv.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
