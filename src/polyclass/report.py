"""Full analysis of a polytope, bundled into one report object.

``analyze`` runs the whole pipeline (facets, lattice points, class
matrix, class group, normality, unit chain, pyramid peeling, Segre
classification when applicable) and returns an :class:`AnalysisReport`,
an immutable named tuple whose ``to_dict`` decides each fact it shows
once, compressedness and simplicity off the polytope: the aligned text is
formatted from that dict, and the canonical JSON is its dump.  It builds
no polytope: the peel core is the vertices that are not apexes, of
dimension dim - (apex count).  The JSON form is deterministic byte for
byte: all orders are canonical and keys are sorted.  The bytes are exactly
those of ``json.dumps(indent=2, sort_keys=True)``, produced by a dedicated
emitter.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple

from .analysis import (
    SegreClassification,
    UnitChain,
    classify_segre,
    is_compressed,
    is_normal,
    k_number,
    pyramid_peel,
    validate_unit_chain,
)
from .classgroup import ClassGroupPresentation, class_group, class_matrix
from .errors import InvariantViolation
from .polytope import Point, Polytope

MATRIX_PRINT_LIMIT = 40


class AnalysisReport(NamedTuple):
    name: str
    polytope: Polytope
    class_group: ClassGroupPresentation | None = None
    class_matrix_rows: tuple[tuple[int, ...], ...] | None = None
    normal: bool | None = None
    unit_chain: UnitChain | None = None
    peel_core_vertices: tuple[Point, ...] | None = None
    segre: SegreClassification | None = None

    def to_dict(self) -> dict[str, Any]:
        p = self.polytope
        out: dict[str, Any] = {
            "name": self.name,
            "ambient_dim": p.ambient_dim,
            "dim": p.dim,
            "trivial": p.dim == 0,
            "num_vertices": len(p.vertices),
            "vertices": [list(v) for v in p.vertices],
            "num_lattice_points": len(p.lattice_points),
            "lattice_points": [list(v) for v in p.lattice_points],
            "warnings": (["polytope is not normal; the class group presentation is formal"]
                         if self.normal is False else []),
        }
        if p.dim == 0:
            return out
        out["facets"] = [
            {
                "id": i,
                "normal": list(f.int_form[0]),
                "offset": f.int_form[1],
                "divisor": f.divisor,
                "values": list(f.row),
                "vertex_indices": list(f.vertex_set),
            }
            for i, f in enumerate(p.facets)
        ]
        out["class_matrix"] = [list(r) for r in self.class_matrix_rows]
        cg = self.class_group
        out["class_group"] = {
            "free_rank": cg.free_rank,
            "invariant_factors": list(cg.full_factors),
            "torsion": list(cg.torsion),
            "description": cg.describe(),
            "formal": not self.normal,
        }
        out["torsionfree"] = cg.is_torsionfree
        out["compressed"] = is_compressed(p)
        out["normal"] = self.normal
        out["simple"] = p.is_simple()
        out["unit_chain"] = {
            "k": self.unit_chain.k,
            "points": [list(v) for v in self.unit_chain.points],
            "facet_ids": list(self.unit_chain.facet_ids),
        }
        apexes = len(p.vertices) - len(self.peel_core_vertices)
        out["pyramid_peel"] = {
            "apex_count": apexes,
            "core_dim": p.dim - apexes,
            "core_vertices": [list(v) for v in self.peel_core_vertices],
        }
        out["segre"] = None
        if self.segre is not None:
            out["segre"] = {
                "tag": self.segre.tag,
                "simplex_dims": (list(self.segre.simplex_dims)
                                 if self.segre.simplex_dims else None),
                "apex_count": self.segre.apex_count,
            }
        return out

    def to_json(self) -> str:
        return _dumps(self.to_dict(), "\n") + "\n"

    def render_text(self) -> str:
        d = self.to_dict()
        lines = [f"polytope {d['name']}",
                 f"  ambient dimension : {d['ambient_dim']}",
                 f"  dimension         : {d['dim']}",
                 f"  vertices          : {d['num_vertices']}",
                 f"  lattice points    : {d['num_lattice_points']}"]
        if d["trivial"]:
            lines.append("  (single point; nothing further to analyze)")
        else:
            cg, chain, segre = d["class_group"], d["unit_chain"], d["segre"]
            label = "class group (formal)" if cg["formal"] else "class group"
            lines += [f"  facets            : {len(d['facets'])}",
                      f"  simple            : {_yn(d['simple'])}",
                      f"  compressed        : {_yn(d['compressed'])}",
                      f"  normal            : {_yn(d['normal'])}",
                      f"  {label:<18}: {cg['description']}",
                      f"  invariant factors : {cg['invariant_factors']}",
                      f"  unit chain length : {chain['k']}"]
            if chain["k"]:
                lines.append(f"    chain points    : {chain['points']}")
                lines.append(f"    chain facets    : {chain['facet_ids']}")
            lines.append(f"  pyramid apexes    : {d['pyramid_peel']['apex_count']} "
                         f"(core dim {d['pyramid_peel']['core_dim']})")
            if segre is not None:
                if segre["tag"] == "SEGRE":
                    a, b = segre["simplex_dims"]
                    lines.append(f"  segre structure   : simplices ({a}, {b}), "
                                 f"{segre['apex_count']} polynomial variable(s) adjoined")
                else:
                    lines.append("  segre structure   : not applicable "
                                 "(facet count is not dim + 2)")
            if d["num_lattice_points"] <= MATRIX_PRINT_LIMIT:
                lines.append("  class matrix (facets x lattice points):")
                for row in d["class_matrix"]:
                    lines.append("    " + " ".join(f"{v:>3}" for v in row))
        lines += [f"  warning: {w}" for w in d["warnings"]]
        return "\n".join(lines) + "\n"


def _dumps(o: Any, indent: str) -> str:
    """``json.dumps(o, indent=2, sort_keys=True)`` for the types a report holds.

    ``indent`` is the newline and spaces before ``o``'s closing bracket.
    Empty containers and scalars other than str and int render alike at
    every indent, so ``json.dumps`` takes them (and raises ``TypeError``
    on other containers).
    """
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if type(o) is int:
        return repr(o)
    inner = indent + "  "
    if isinstance(o, dict) and o:
        body = ("," + inner).join([encode_basestring_ascii(k) + ": " + _dumps(v, inner)
                                   for k, v in sorted(o.items())])
        return "{" + inner + body + indent + "}"
    if isinstance(o, (list, tuple)) and o:
        if set(map(type, o)) == {int}:
            body = repr(list(o))[1:-1].replace(" ", inner)
        else:
            body = ("," + inner).join([_dumps(x, inner) for x in o])
        return "[" + inner + body + indent + "]"
    return json.dumps(o)


def _yn(v: bool | None) -> str:
    return {True: "yes", False: "no", None: "-"}[v]


def analyze(p: Polytope, name: str = "polytope") -> AnalysisReport:
    """Run the full pipeline on ``p``.

    Dimension-0 polytopes get a report marked trivial.  A non-normal
    polytope still gets its class matrix data, flagged as a formal
    presentation, with a warning attached.  A unit chain that fails its
    revalidation raises :class:`InvariantViolation`.
    """
    if p.dim == 0:
        return AnalysisReport(name=name, polytope=p)
    normal = is_normal(p)
    cg = class_group(p)
    cm = class_matrix(p)
    chain = k_number(p)
    if not validate_unit_chain(p, chain):
        raise InvariantViolation(f"unit chain certificate failed revalidation: {chain}")
    core = pyramid_peel(p)
    segre = classify_segre(p) if p.is_01 else None
    return AnalysisReport(
        name=name,
        polytope=p,
        class_group=cg,
        class_matrix_rows=cm.matrix.entries,
        normal=normal,
        unit_chain=chain,
        peel_core_vertices=core,
        segre=segre,
    )
