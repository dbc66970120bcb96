"""Span tracing of polyclass from outside the package.

``Tracer.install()`` replaces the public functions, constructors and
cached properties of each layer module with wrappers that record a span
(name, start, end, parent) per call, under every name a module of the
package references them by (``polyclass.analysis.in_row_lattice`` as
well as ``polyclass.intlinalg.in_row_lattice``).  Leaving the ``with``
block restores the originals, so untraced runs execute unmodified code.
Nothing in ``src/`` is touched.

Spans are kept in memory until their root span (normally one
``cli.main`` call) closes; then each span's self time, its duration
minus the part its child spans cover, is added to ``self_s`` under the
span's name, and the spans are dropped.  Work counters are recorded at
the same boundaries in ``counts``.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from math import comb, prod
from time import perf_counter
from typing import Any, Callable, Iterator

import polyclass
from polyclass import analysis, classgroup, cli, families, intlinalg, report
from polyclass import polytope as polytope_mod
from polyclass.polytope import Polytope
from polyclass.report import AnalysisReport

# Modules whose namespaces are searched for references to wrapped functions.
MODULES = (polyclass, polytope_mod, intlinalg, classgroup, analysis, report, families, cli)

Count = Callable[[Counter, tuple, Any], None]


def _count_snf(c: Counter, args: tuple, res: Any) -> None:
    c["intlinalg.snf_cells"] += args[0].rows * args[0].cols


def _count_lattice_test(c: Counter, args: tuple, res: Any) -> None:
    c["intlinalg.lattice_tests"] += 1


def _count_matrix(c: Counter, args: tuple, res: Any) -> None:
    c["classgroup.matrix_calls"] += 1
    c["classgroup.matrix_cells"] += res.matrix.rows * res.matrix.cols


def _count_group(c: Counter, args: tuple, res: Any) -> None:
    c["classgroup.group_calls"] += 1


def _count_normal(c: Counter, args: tuple, res: Any) -> None:
    c["analysis.normal_calls"] += 1


def _count_json(c: Counter, args: tuple, res: Any) -> None:
    c["report.json_bytes"] += len(res.encode())


def _count_hull(c: Counter, args: tuple, res: Any) -> None:
    p = args[0]
    c["polytope.hull_subsets"] += comb(len(p.vertices), p.dim)
    c["polytope.facets_found"] += len(res[1])


# Module-level functions: original -> (span name, counter or None).
FUNCTIONS: dict[Callable, tuple[str, Count | None]] = {
    intlinalg.snf: ("intlinalg.snf", _count_snf),
    intlinalg.hnf_row_lattice: ("intlinalg.hnf", None),
    intlinalg.in_row_lattice: ("intlinalg.lattice_test", _count_lattice_test),
    classgroup.class_matrix: ("classgroup.matrix", _count_matrix),
    classgroup.class_group: ("classgroup.group", _count_group),
    analysis.is_normal: ("analysis.normal", _count_normal),
    analysis.k_number: ("analysis.chain", None),
    analysis.validate_unit_chain: ("analysis.chain", None),
    analysis.pyramid_peel: ("analysis.peel", None),
    analysis.classify_segre: ("analysis.segre", None),
    analysis.is_compressed: ("analysis.checks", None),
    analysis.polytope_checks: ("analysis.checks", None),
    analysis.verify_family: ("analysis.checks", None),
    report.analyze: ("report.analyze", None),
    families.random_01_polytopes: ("families.sample", None),
    cli.main: ("cli", None),
}

# Methods and constructors: (class, attribute, span name, counter or None).
METHODS = (
    (Polytope, "__init__", "polytope.construct", None),
    (AnalysisReport, "to_json", "report.render", _count_json),
    (AnalysisReport, "render_text", "report.render", None),
)

# cached_property getters: (class, attribute, span name, counter or None).
PROPERTIES = (
    (Polytope, "_hull", "polytope.hull", _count_hull),
    (Polytope, "facets", "polytope.facet_values", None),
)


def box_size(p: Polytope, h: int) -> int:
    """Points in the ambient bounding box of h*P that the point scan visits."""
    return prod(h * (max(col) - min(col)) + 1 for col in zip(*p.vertices))


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.wall = 0.0  # summed duration of closed root spans

    def run(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[idx] = (name, start, end, parent)
            if not stack:
                self._close_root()

    def _close_root(self) -> None:
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                self.wall += end - start
        for (name, start, end, _), child in zip(spans, covered):
            self.self_s[name] += end - start - child
            self.calls[name] += 1
        spans.clear()

    def _wrap(self, name: str, fn: Callable, count: Count | None) -> Callable:
        def traced(*args, **kwargs):
            res = self.run(name, fn, args, kwargs)
            if count is not None:
                count(self.counts, args, res)
            return res
        traced.__wrapped__ = fn
        return traced

    def _wrap_scaled_points(self, fn: Callable) -> Callable:
        # h = 1 is the lattice-point enumeration (its own span); h >= 2 is
        # the scan of h*P inside the normality test, left in that span.
        counts = self.counts

        def scaled_points(p: Polytope, h: int):
            if h != 1:
                counts["analysis.normal_box_points"] += box_size(p, h)
                return fn(p, h)
            pts = self.run("polytope.points", fn, (p, h), {})
            counts["polytope.box_points"] += box_size(p, 1)
            counts["polytope.points_kept"] += len(pts)
            return pts
        return scaled_points

    @contextlib.contextmanager
    def install(self) -> Iterator["Tracer"]:
        undo: list[Callable[[], None]] = []
        try:
            wrapped = {fn: self._wrap(name, fn, count)
                       for fn, (name, count) in FUNCTIONS.items()}
            for mod in MODULES:
                for attr, val in list(vars(mod).items()):
                    if callable(val) and val in wrapped:
                        setattr(mod, attr, wrapped[val])
                        undo.append(lambda m=mod, a=attr, v=val: setattr(m, a, v))
            for cls, attr, name, count in METHODS:
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, orig, count))
                undo.append(lambda c=cls, a=attr, v=orig: setattr(c, a, v))
            orig = Polytope.__dict__["_scaled_lattice_points"]
            Polytope._scaled_lattice_points = self._wrap_scaled_points(orig)
            undo.append(lambda v=orig: setattr(Polytope, "_scaled_lattice_points", v))
            for cls, attr, name, count in PROPERTIES:
                prop = cls.__dict__[attr]
                orig = prop.func
                prop.func = self._wrap(name, orig, count)
                undo.append(lambda p=prop, v=orig: setattr(p, "func", v))
            yield self
        finally:
            for fn in reversed(undo):
                fn()
