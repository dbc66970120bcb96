"""Lattice polytopes from vertex data, with exact facet and point enumeration.

A :class:`Polytope` is the convex hull of finitely many integer points.
All derived data (affine hull, facets, lattice points, facet value
vectors) is computed exactly and cached on first use; instances are
immutable.

Facet values are normalized the way class-group computations need them:
for each facet the affine form is scaled so that its values on the
lattice points of the polytope are nonnegative integers with gcd 1 and
vanish exactly on the facet.  That value vector is canonical even though
the supporting form itself is only determined up to the affine hull.

Facets come from an exact integer double description of the cone of
valid forms, in coordinates where the points span their affine hull.
Each facet's form is the one the lex-first scan over dim-sized point
subsets would reach, so the forms do not depend on the method.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iterproduct
from math import gcd
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import InvariantViolation
from .intlinalg import (
    IntMatrix,
    _echelon_int,
    hnf_row_lattice,
    int_kernel_basis,
)

Point = tuple[int, ...]
# An affine form (a, b) represents the function x -> <a, x> + b.
Form = tuple[tuple[int, ...], int]


def _eval_form(form: Form, pt: Sequence[int]) -> int:
    a, b = form
    s = b
    for c, x in zip(a, pt):
        if c:
            s += c * x
    return s


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {x : <a, x> + b = 0} with rational coefficients."""

    a: tuple[Fraction, ...]
    b: Fraction

    def __post_init__(self) -> None:
        if not any(self.a):
            raise ValueError("hyperplane normal must be nonzero")

    def evaluate(self, pt: Sequence[int | Fraction]) -> Fraction:
        if len(pt) != len(self.a):
            raise ValueError("point dimension mismatch")
        return sum((c * x for c, x in zip(self.a, pt)), start=self.b)


@dataclass(frozen=True)
class FacetData:
    """One facet: supporting hyperplane plus its normalized value vector.

    ``hyperplane`` is scaled so that evaluating it at a lattice point of
    the parent polytope gives exactly ``values[pt]``.  ``int_form`` is
    the primitive integer representative of the same hyperplane and
    ``divisor`` the gcd that relates them: values[pt] = int_form(pt) / divisor.
    ``vertex_set`` holds indices into the parent's vertex tuple.
    """

    facet_id: int
    hyperplane: Hyperplane
    vertex_set: tuple[int, ...]
    values: Mapping[Point, int]
    int_form: Form
    divisor: int

    def value(self, pt: Point) -> int:
        return self.values[pt]


def _validate_vertices(points: Iterable[Sequence[int]],
                       ambient_dim: int | None) -> tuple[tuple[Point, ...], int]:
    pts = []
    for p in points:
        tp = tuple(p)
        for v in tp:
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"vertex coordinates must be int, got {v!r}")
        pts.append(tuple(int(v) for v in tp))
    if not pts:
        raise ValueError("a polytope needs at least one vertex")
    d = ambient_dim if ambient_dim is not None else len(pts[0])
    for p in pts:
        if len(p) != d:
            raise ValueError("all vertices must have the same dimension")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate vertices")
    return tuple(sorted(pts)), d


class Polytope:
    """Convex hull of integer points, canonicalized to lex-sorted vertices.

    The constructor is strict: every supplied point must be an actual
    vertex of the hull, checked at construction time.  Use
    :meth:`from_points` to build a polytope from an arbitrary generating
    set with duplicates and interior points silently dropped.
    """

    __slots__ = ("vertices", "ambient_dim", "__dict__")

    def __init__(self, vertices: Iterable[Sequence[int]], ambient_dim: int | None = None):
        verts, d = _validate_vertices(vertices, ambient_dim)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "ambient_dim", d)
        self._hull  # noqa: B018  -- forces the non-vertex check now

    @classmethod
    def from_points(cls, points: Iterable[Sequence[int]],
                    ambient_dim: int | None = None) -> "Polytope":
        pts = [tuple(int(v) for v in p) for p in points]
        uniq, d = _validate_vertices(set(pts), ambient_dim)
        aff, cands = _hull_candidates(uniq, d)
        keep = [p for i, p in enumerate(uniq) if _is_vertex(uniq, i, d, aff, cands)]
        return cls(keep, d)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polytope)
                and self.ambient_dim == other.ambient_dim
                and self.vertices == other.vertices)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self) -> str:
        return f"Polytope(dim={self.dim}, vertices={list(self.vertices)})"

    # -- basic geometry ------------------------------------------------

    @cached_property
    def dim(self) -> int:
        v0 = self.vertices[0]
        diffs = [tuple(a - b for a, b in zip(v, v0)) for v in self.vertices[1:]]
        _, pivots = _echelon_int(diffs, self.ambient_dim)
        return len(pivots)

    @cached_property
    def is_01(self) -> bool:
        return all(v in (0, 1) for pt in self.vertices for v in pt)

    @cached_property
    def _hull(self) -> tuple[tuple[Form, ...], tuple[tuple[Form, tuple[int, ...]], ...]]:
        """(affine hull equations, facet (form, vertex indices) pairs).

        Facet forms are primitive integer forms oriented >= 0 on the
        polytope, ordered by their sorted vertex index tuples.  Raises if
        some supplied point is not a vertex.
        """
        aff, cands = _hull_candidates(self.vertices, self.ambient_dim)
        for i in range(len(self.vertices)):
            if not _is_vertex(self.vertices, i, self.ambient_dim, aff, cands):
                raise ValueError(f"point {self.vertices[i]} is not a vertex of the hull")
        facets = tuple(sorted(cands, key=lambda fc: fc[1]))
        return tuple(aff), facets

    @property
    def affine_hull_forms(self) -> tuple[Form, ...]:
        """Primitive integer affine forms vanishing on the polytope."""
        return self._hull[0]

    @cached_property
    def lattice_points(self) -> tuple[Point, ...]:
        """All integer points of the polytope, in lex order."""
        return self._scaled_lattice_points(1)

    def _scaled_lattice_points(self, h: int) -> tuple[Point, ...]:
        """Integer points of the dilation h*P, without building h*P.

        A form (a, b) valid for P turns into (a, h*b) for h*P, for both
        the affine hull equations and the facet inequalities.
        """
        aff, facets = self._hull
        eqs = [(a, h * b) for a, b in aff]
        ineqs = [(a, h * b) for (a, b), _ in facets]
        ranges = []
        for j in range(self.ambient_dim):
            coords = [v[j] for v in self.vertices]
            ranges.append(range(h * min(coords), h * max(coords) + 1))
        out = []
        for pt in iterproduct(*ranges):
            ok = True
            for form in eqs:
                if _eval_form(form, pt) != 0:
                    ok = False
                    break
            if ok:
                for form in ineqs:
                    if _eval_form(form, pt) < 0:
                        ok = False
                        break
            if ok:
                out.append(pt)
        return tuple(out)

    @cached_property
    def facets(self) -> tuple[FacetData, ...]:
        """Facets with normalized value vectors, in canonical order.

        Canonical order is by sorted vertex index tuple.  The value
        vector of each facet is divided by its gcd over the lattice
        points, which makes it independent of the choice of supporting
        form modulo the affine hull.
        """
        if self.dim == 0:
            raise ValueError("a 0-dimensional polytope has no facets")
        _, raw = self._hull
        pts = self.lattice_points
        out = []
        for fid, (form, vset) in enumerate(raw):
            vals = [_eval_form(form, pt) for pt in pts]
            g = 0
            for v in vals:
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                vals = [v // g for v in vals]
            else:
                g = 1
            a, b = form
            hyp = Hyperplane(tuple(Fraction(c, g) for c in a), Fraction(b, g))
            out.append(FacetData(
                facet_id=fid,
                hyperplane=hyp,
                vertex_set=vset,
                values=MappingProxyType(dict(zip(pts, vals))),
                int_form=form,
                divisor=g,
            ))
        return tuple(out)

    def contains(self, pt: Sequence[int | Fraction]) -> bool:
        """Exact membership test for a rational point."""
        if len(pt) != self.ambient_dim:
            raise ValueError("point dimension mismatch")
        aff, facets = self._hull
        q = [Fraction(x) for x in pt]
        for a, b in aff:
            if sum((c * x for c, x in zip(a, q)), start=Fraction(b)) != 0:
                return False
        for (a, b), _ in facets:
            if sum((c * x for c, x in zip(a, q)), start=Fraction(b)) < 0:
                return False
        return True

    def is_simple(self) -> bool:
        """True when every vertex lies on exactly dim facets."""
        counts = [0] * len(self.vertices)
        for f in self.facets:
            for i in f.vertex_set:
                counts[i] += 1
        return all(c == self.dim for c in counts)

    def dilate(self, k: int) -> "Polytope":
        """The dilation k*P, k >= 1."""
        if type(k) is not int or k < 1:
            raise ValueError("dilation factor must be a positive integer")
        if k == 1:
            return self
        return Polytope([tuple(k * x for x in v) for v in self.vertices], self.ambient_dim)

    @cached_property
    def lattice_height_basis(self) -> IntMatrix:
        """Hermite basis of the lattice spanned by {(v, 1) : v a lattice point}."""
        rows = [pt + (1,) for pt in self.lattice_points]
        return hnf_row_lattice(IntMatrix.from_rows(rows, self.ambient_dim + 1))


def _hull_candidates(verts: tuple[Point, ...], d: int):
    """Affine hull forms and facets of conv(verts), by double description.

    Returns (affine_forms, [(form, on_indices)]): affine_forms are
    primitive integer forms vanishing on every point; each facet is a
    primitive integer form, oriented >= 0 on all points, with the sorted
    tuple of indices of the points it vanishes on (non-vertex points
    included), in order of those tuples.

    The points are projected onto the k pivot columns of their
    differences, an affine isomorphism of aff(P) onto Q^k.  There the
    facets are the extreme rays of the cone of forms y with
    <y, (x, 1)> >= 0 on every point x, found by Motzkin's double
    description (Fukuda & Prodon 1996): start from the simplicial cone of
    the greedy affinely independent k+1 points, add one point at a time,
    and join a ray on its positive side with one on its negative side
    when the combinatorial test finds them adjacent.  Rays are primitive;
    zero sets are bitmasks over point indices.

    Each facet's form is the one a scan over k-subsets of the points
    would find: for k = d the ray itself, the unique primitive form; else
    the spanning form of the facet's points, which is the same for every
    spanning subset of them.
    """
    v0 = verts[0]
    diffs = [tuple(a - b for a, b in zip(v, v0)) for v in verts[1:]]
    _, pivots = _echelon_int(diffs, d)
    k = len(pivots)
    aff = []
    if k < d:
        aff = [(vec[:d], vec[d]) for vec in int_kernel_basis(
            [v + (1,) for v in verts], d + 1)]
    if k == 0:
        return aff, []
    rows = [tuple(v[c] for c in pivots) + (1,) for v in verts]
    base = _greedy_independent(rows)
    rays = []
    for i in base:
        ray = int_kernel_basis([rows[b] for b in base if b != i], k + 1)[0]
        if _dot(ray, rows[i]) < 0:
            ray = tuple(-c for c in ray)
        rays.append((ray, sum(1 << b for b in base if b != i)))
    for i, row in enumerate(rows):
        if i in base:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        for ray, zs in rays:
            val = _dot(ray, row)
            if val < 0:
                neg.append((ray, zs, val))
                continue
            if val > 0:
                pos.append((ray, zs, val))
            kept.append((ray, zs if val else zs | bit))
        for p, zp, vp in pos:
            for n, zn, vn in neg:
                common = zp & zn
                if common.bit_count() < k - 1 or any(
                        zs & common == common and zs != zp and zs != zn for _, zs in rays):
                    continue
                kept.append((_primitive([vp * b - vn * a for a, b in zip(p, n)]), common | bit))
        rays = kept
    facets = []
    for ray, zs in rays:
        on = tuple(i for i in range(len(verts)) if zs >> i & 1)
        if k == d:
            form = (ray[:d], ray[d])
        else:
            form = _spanning_form_general([verts[i] for i in on], verts, d)
            if any(_eval_form(form, v) < 0 for v in verts):
                form = (tuple(-c for c in form[0]), -form[1])
        facets.append((form, on))
    return aff, sorted(facets, key=lambda fc: fc[1])


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*vec)
    return tuple(v // g for v in vec)


def _greedy_independent(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the rows independent of the rows kept before them."""
    basis: list[tuple[int, tuple[int, ...], int]] = []
    for i, v in enumerate(rows):
        for c, b, _ in basis:
            if v[c]:
                v = [x * b[c] - v[c] * y for x, y in zip(v, b)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            basis.append((lead, _primitive(v), i))
    return [i for _, _, i in basis]


def _spanning_form_general(pts: list[Point], verts: tuple[Point, ...], d: int) -> Form:
    """Form vanishing on the points of a facet of a lower-dimensional hull.

    The kernel of the stacked rows (p, 1) holds the affine hull equations
    and one more form; the first kernel basis vector not vanishing on
    every point of ``verts`` represents the facet's hyperplane.  The
    basis depends only on the row space, so any spanning subset of the
    facet's points gives the same form.
    """
    for vec in int_kernel_basis([p + (1,) for p in pts], d + 1):
        form = (vec[:d], vec[d])
        if any(_eval_form(form, v) for v in verts):
            return form
    raise InvariantViolation("points do not span a facet hyperplane")


def _is_vertex(verts: tuple[Point, ...], idx: int, d: int,
               aff: list[Form], cands) -> bool:
    """A point is a vertex iff the forms vanishing there cut out a single point."""
    v = verts[idx]
    rows = [a for a, _ in aff]
    for form, _ in cands:
        if _eval_form(form, v) == 0:
            rows.append(form[0])
    _, pivots = _echelon_int(rows, d)
    return len(pivots) == d
