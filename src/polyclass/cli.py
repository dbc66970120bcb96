"""Command line interface: analyze, make, verify.

``analyze`` reads a polytope JSON file and prints the full report.
``make`` builds a polytope from a constructor and writes it to a file.
``verify`` runs the implication battery over fixture / exhaustive /
sampled families and reports a pass-fail table.

Exit codes: 0 success, 1 usage or input error (a bad command line,
reported by the command it was given to; malformed JSON, floats, points
that are not vertices, an input or ``make -o`` file that cannot be
opened: each ``error: <path>: <reason>``),
2 internal invariant violation, such as a unit-chain certificate that
fails its revalidation, or a failed ``verify`` check (either way a
computed result contradicts the theory).  Validation errors count as
bad input only where the input becomes polytopes (a polytope file's
``Polytope``, all of ``make``, the ``verify`` family); any other
exception propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache, reduce
from typing import Any, Callable, Iterator, Sequence

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


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise FileFormatError(f"{path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (RecursionError, ValueError) as e:
        # Not UTF-8, nesting past the recursion limit, or an int over the digit limit.
        raise FileFormatError(f"{path}: {e}") from None
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return data


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def load_polytope_file(path: str) -> tuple[str, Polytope]:
    """Read {"name": str, "vertices": [[int, ...], ...]}; ``Polytope`` checks the coordinates."""
    data = _load_json(path)
    name = data.get("name", os.path.splitext(os.path.basename(path))[0])
    if not isinstance(name, str):
        raise FileFormatError(f"{path}: \"name\" must be a string")
    verts = data.get("vertices")
    if not isinstance(verts, list) or not verts:
        raise FileFormatError(f"{path}: \"vertices\" must be a nonempty array")
    for i, row in enumerate(verts):
        if not isinstance(row, list):
            raise FileFormatError(f"{path}: vertex {i} must be an array")
    try:
        return name, Polytope(verts)
    except (ValueError, TypeError) as e:
        raise FileFormatError(f"{path}: {e}") from None


def write_polytope_file(path: str, name: str, p: Polytope) -> None:
    doc = {"name": name, "vertices": [list(v) for v in p.vertices]}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise FileFormatError(f"{path}: {e.strerror or e}") from None


def _load_pairs(path: str, key: str, noun: str, build: Callable[[int, list], Any]) -> Any:
    """Read {"n": int, <key>: [[int, int], ...]} into build(n, pairs); ``noun`` names a pair."""
    data = _load_json(path)
    n = _require_int(data.get("n"), f"{path}: \"n\"")
    items = data.get(key)
    if not isinstance(items, list):
        raise FileFormatError(f"{path}: \"{key}\" must be an array")
    pairs = []
    for i, e in enumerate(items):
        if not isinstance(e, list) or len(e) != 2:
            raise FileFormatError(f"{path}: {noun} {i} must be a pair")
        pairs.append(tuple(_require_int(v, f"{path}: {noun} {i}") for v in e))
    try:
        return build(n, pairs)
    except ValueError as e:
        raise FileFormatError(f"{path}: {e}") from None


def load_graph_file(path: str) -> families.Graph:
    """Read {"n": int, "edges": [[a, b], ...]}."""
    return _load_pairs(path, "edges", "edge", families.Graph)


def load_poset_file(path: str) -> tuple[families.Poset, bool]:
    """Read {"n": int, "relations": [[a, b], ...]} meaning a <= b.

    Returns the poset and whether the input was already transitively
    closed (the closure is always taken).
    """
    def build(n: int, pairs: list) -> tuple[families.Poset, bool]:
        poset = families.Poset.from_relations(n, pairs)
        return poset, poset.is_transitively_closed_input(pairs)
    return _load_pairs(path, "relations", "relation", build)


_NAMED = {"simplex": "SIZE", "cube": "SIZE", "fixture": "NAME"}  # what the one parameter is


def _named(kind: str, arg: str, spec: str) -> tuple[Polytope, str]:
    """``(polytope, arg as parsed)`` for simplex N, cube N or fixture NAME; errors quote spec."""
    if kind == "fixture":
        return families.fixture(arg), arg
    try:
        n = int(arg)
    except ValueError:
        raise FileFormatError(f"bad numeric argument in spec {spec!r}") from None
    return (families.simplex if kind == "simplex" else families.cube)(n), str(n)


def build_from_spec(spec: str) -> Polytope:
    """Resolve a constructor spec: name:arg (simplex:2, cube:3, fixture:P1) or a JSON path."""
    if spec.endswith(".json") or os.path.exists(spec):
        return load_polytope_file(spec)[1]
    kind, _, arg = spec.partition(":")
    if kind not in _NAMED:
        raise FileFormatError(
            f"cannot resolve {spec!r}: expected simplex:N, cube:N, fixture:NAME, "
            f"or a path to a polytope JSON file")
    return _named(kind, arg, spec)[0]


def _cmd_analyze(args: argparse.Namespace) -> int:
    name, p = load_polytope_file(args.file)
    rep = analyze(p, name=name)
    if args.json:
        sys.stdout.write(rep.to_json())
    else:
        sys.stdout.write(rep.render_text())
    return 0


def _product(specs: list[str]) -> Polytope:
    if len(specs) < 2:  # beyond what an argparse nargs can require
        raise FileFormatError("product needs at least two --of specs")
    return reduce(families.product, [build_from_spec(s) for s in specs])


def _order(path: str) -> Polytope:
    poset, closed = load_poset_file(path)
    if not closed:
        print("warning: relations were not transitively closed; closure taken",
              file=sys.stderr)
    return families.order_polytope(poset)


@_input_boundary()
def _cmd_make(args: argparse.Namespace) -> int:
    p, *parts = args.make(args)
    name = args.name or "_".join([args.ctor, *parts]).replace(":", "_").replace("/", "_")
    write_polytope_file(args.output, name, p)
    print(f"wrote {args.output}: {name}, {len(p.vertices)} vertices in R^{p.ambient_dim}")
    return 0


def _family(args: argparse.Namespace, labels: list[str]) -> Iterator[Polytope]:
    """Yield the family ``verify`` checks, appending each member's label to ``labels``."""
    explicit_family = args.exhaustive or args.samples is not None
    dim = 3 if args.dim is None else args.dim
    seed = args.seed or 0
    with _input_boundary():
        if args.fixtures or not explicit_family:
            for fname in families.fixture_names():
                labels.append(f"fixture {fname}")
                yield families.fixture(fname)
        if args.exhaustive:
            for i, p in enumerate(families.all_01_polytopes(dim)):
                labels.append(f"exhaustive dim {dim} #{i}")
                yield p
        if args.samples is not None:
            for i, p in enumerate(families.random_01_polytopes(dim, args.samples, seed)):
                labels.append(f"sample dim {dim} #{i} (seed {seed})")
                yield p


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.seed is not None and args.samples is None:
        raise FileFormatError("--seed needs --samples")
    if args.dim is not None and not (args.exhaustive or args.samples is not None):
        raise FileFormatError("--dim needs --exhaustive or --samples")
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


class _StoreOnce(argparse.Action):
    """argparse's ``store``, refusing an option given a second time."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, subparsers too: a bad command line is bad input."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)

    def parse_known_args(self, args=None, namespace=None):
        # Refused here, not handed up, so the command given a stray option names itself.
        ns, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return ns, extras

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
    ctors = pm.add_subparsers(dest="ctor", metavar="CTOR", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--name", help="name stored in the output file")
    common.add_argument("-o", "--output", required=True, help="output polytope JSON file")
    spec = "input polytope: simplex:N, cube:N, fixture:NAME, or a JSON path"

    def ctor(kind: str, summary: str, make: Callable[[argparse.Namespace], tuple]
             ) -> argparse.ArgumentParser:
        """Add constructor ``kind``; ``make(args)`` is (polytope, *default name parts)."""
        c = ctors.add_parser(kind, help=summary, parents=[common])
        c.set_defaults(func=_cmd_make, make=make)
        return c

    for kind, meta in _NAMED.items():
        c = ctor(kind, f"the {kind} of the given {meta.lower()}",
                 lambda a: _named(a.ctor, a.param, a.param))
        c.add_argument("param", metavar=meta)
    c = ctor("product", "product of two or more polytopes", lambda a: (_product(a.of), *a.of))
    c.add_argument("--of", nargs="+", required=True, metavar="SPEC", help=spec + " (two or more)")
    c = ctor("pyramid", "lattice pyramid over a polytope",
             lambda a: (families.pyramid(build_from_spec(a.of), a.lift), a.of))
    c.add_argument("--of", required=True, metavar="SPEC", help=spec)
    c.add_argument("--lift", type=int, default=1, help="apex height (default 1)")
    c = ctor("dilate", "dilation of a polytope",
             lambda a: (families.dilate(build_from_spec(a.of), a.factor), a.of, str(a.factor)))
    c.add_argument("--of", required=True, metavar="SPEC", help=spec)
    c.add_argument("--factor", type=int, default=2, help="dilation factor (default 2)")
    c = ctor("order", "order polytope of a poset", lambda a: (_order(a.poset),))
    c.add_argument("--poset", required=True, metavar="FILE", help="poset JSON file")
    for kind, summary, build in (("stableset", "stable set", families.stable_set_polytope),
                                 ("edge", "edge", families.edge_polytope)):
        c = ctor(kind, f"{summary} polytope of a graph",
                 lambda a, build=build: (build(load_graph_file(a.graph)),))
        c.add_argument("--graph", required=True, metavar="FILE", help="graph JSON file")

    pv = sub.add_parser("verify", help="run the implication battery over families")
    pv.add_argument("--dim", type=int,
                    help="dimension of the --exhaustive or --samples family (default 3)")
    group = pv.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true",
                       help="all full-dimensional (0,1)-polytopes of the given dimension")
    group.add_argument("--samples", type=int, default=None, metavar="K",
                       help="number of seeded random (0,1)-polytopes")
    pv.add_argument("--seed", type=int, help="seed for --samples (default 0)")
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
