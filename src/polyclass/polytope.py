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
Each facet keeps it as a row aligned with the lattice points, built in
one pass over the point coordinates' columns; the facet-by-point matrix
of these rows is what the class group, compressedness, unit chains and
the pyramid tests all read.

Facets come from an exact integer double description of the cone of
valid forms, in coordinates where the points span their affine hull.
One elimination of the rows (v, 1) finds those coordinates, the affine
hull equations and a start simplex; the simplex's adjugate gives the
start rays.  Each facet's form is its ray on those coordinates, 0 on the
others: the one the lex-first scan over dim-sized point subsets would
reach, so the forms do not depend on the method.  Vertices
are read off the facet incidences.  The lattice points of P and of its
dilations h*P are enumerated by slicing, in lex order: each coordinate
ranges over the integers the hull of the vertices projected onto the
coordinates so far allows, so no point outside h*P is visited and none
is re-tested against the facets.  A bounded memo keyed by the projected
points lets the members of a family share those projections' hulls.  All
arithmetic is on ``int``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import repeat
from math import gcd
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .intlinalg import (
    IntMatrix,
    _adjugate_rays,
    _echelon_int,
    _kernel_of_echelon,
    _primitive,
    hnf_row_lattice,
)

Point = tuple[int, ...]
# An affine form (a, b) represents the function x -> <a, x> + b.
Form = tuple[tuple[int, ...], int]


class FacetData(NamedTuple):
    """One facet: primitive integer form plus its normalized value row.

    ``int_form`` is the primitive integer form of the supporting
    hyperplane, >= 0 on the parent polytope, and ``divisor`` the gcd of
    its values on the lattice points.  ``row[i]`` is the normalized
    value int_form(points[i]) / divisor at the i-th lattice point of the
    parent, in its lex order.  ``vertex_set`` holds indices into the
    parent's vertex tuple.  An immutable named tuple with no ``__dict__``.
    """

    facet_id: int
    vertex_set: tuple[int, ...]
    row: tuple[int, ...]
    int_form: Form
    divisor: int


def _validate_vertices(points: Iterable[Sequence[int]]) -> list[Point]:
    pts = []
    for p in points:
        tp = tuple(p)
        for v in tp:
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"vertex coordinates must be int, got {v!r}")
        pts.append(tuple(int(v) for v in tp))
    if not pts:
        raise ValueError("a polytope needs at least one vertex")
    if any(len(p) != len(pts[0]) for p in pts):
        raise ValueError("all vertices must have the same dimension")
    return pts


class Polytope:
    """Convex hull of integer points, canonicalized to lex-sorted vertices.

    The constructor is strict: every supplied point must be an actual
    vertex of the hull, checked at construction time.  ``ambient_dim`` is
    the vertices' length, and ``dim`` is it minus the number of affine
    hull equations.
    """

    __slots__ = ("vertices", "ambient_dim", "dim", "__dict__")

    def __init__(self, vertices: Iterable[Sequence[int]]):
        verts = _validate_vertices(vertices)
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertices")
        object.__setattr__(self, "vertices", tuple(sorted(verts)))
        object.__setattr__(self, "ambient_dim", len(verts[0]))
        self._hull  # noqa: B018  -- forces the non-vertex check now

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
        for v, vertex in zip(self.vertices, _vertex_flags(len(self.vertices), cands)):
            if not vertex:
                raise ValueError(f"point {v} is not a vertex of the hull")
        # Set here: perfbench's tracer reads dim before this value is cached.
        object.__setattr__(self, "dim", self.ambient_dim - len(aff))
        return tuple(aff), tuple(cands)

    @property
    def affine_hull_forms(self) -> tuple[Form, ...]:
        """Primitive integer affine forms vanishing on the polytope."""
        return self._hull[0]

    @cached_property
    def lattice_points(self) -> tuple[Point, ...]:
        """All integer points of the polytope, in lex order."""
        return self._scaled_lattice_points(1)

    @cached_property
    def _slices(self) -> tuple[tuple, ...]:
        """Per coordinate j, how conv(vertices projected onto x_1..x_j) bounds x_j.

        Entry j is the :func:`_bounds` of that hull: the polytope's own
        for the last coordinate, else from the bounded memo
        :func:`_prefix_bounds`, which a family's members share.
        """
        n = self.ambient_dim
        out = [_prefix_bounds(tuple(sorted({v[:j + 1] for v in self.vertices})))
               for j in range(n - 1)]
        if n:
            out.append(_bounds(*self._hull, n - 1))
        return tuple(out)

    def _scaled_lattice_points(self, h: int) -> tuple[Point, ...]:
        """Integer points of the dilation h*P in lex order, without building h*P.

        A form (a, b) valid for P turns into (a, h*b) for h*P.  The walk
        fixes x_1, x_2, ... in turn.  Write P_j for the projection of P
        onto x_1..x_j, so h*P_{j-1} is the projection of h*P_j.  Once
        x_1..x_{j-1} is a point of h*P_{j-1}, the x_j over it in h*P_j
        form a nonempty interval, cut out by the forms of P_j with x_j in
        them alone: every other form is valid on P_{j-1} and holds
        already.  Its ends are the ceil of the lows and the floor of the
        highs; an affine hull equation is one of each, so a non-integral
        pinned value leaves lo > hi.  So every integer x_j in range extends
        the prefix to a point of h*P_j, and at j = n to a point of h*P: no
        point is re-tested, and the only waste is prefixes whose integer
        interval is empty.
        """
        n = self.ambient_dim
        if n == 0:
            return ((),)
        slices = self._slices
        last = n - 1
        out: list[Point] = []
        x = [0] * n
        top = [0] * n
        j = 0
        while True:
            lows, highs = slices[j]
            lo = hi = None
            for terms, b, a in lows:
                s = h * b
                for i, c in terms:
                    s += c * x[i]
                v = -(s // a)
                if lo is None or v > lo:
                    lo = v
            for terms, b, a in highs:
                s = h * b
                for i, c in terms:
                    s += c * x[i]
                v = s // a
                if hi is None or v < hi:
                    hi = v
            if j == last:
                prefix = tuple(x[:last])
                for v in range(lo, hi + 1):
                    out.append(prefix + (v,))
            else:
                x[j] = lo
                top[j] = hi
                if lo <= hi:
                    j += 1
                    continue
            # Advance the deepest level that still has room.
            j -= 1
            while j >= 0 and x[j] == top[j]:
                j -= 1
            if j < 0:
                return tuple(out)
            x[j] += 1
            j += 1

    @cached_property
    def facets(self) -> tuple[FacetData, ...]:
        """Facets with normalized value rows, in canonical order.

        Canonical order is by sorted vertex index tuple.  The value row
        of each facet is divided by its gcd over the lattice points,
        which makes it independent of the choice of supporting form
        modulo the affine hull.  A row is the form's offset plus, for
        each nonzero coefficient, that multiple of the points' coordinate
        column.
        """
        if self.dim == 0:
            raise ValueError("a 0-dimensional polytope has no facets")
        _, raw = self._hull
        pts = self.lattice_points
        cols = tuple(zip(*pts))
        out = []
        for fid, (form, vset) in enumerate(raw):
            a, b = form
            row = [b] * len(pts)
            for c, col in zip(a, cols):
                if c:
                    row = list(map(add, row, map(mul, repeat(c), col)))
            g = gcd(*row)
            if g > 1:
                row = [v // g for v in row]
            out.append(FacetData(
                facet_id=fid,
                vertex_set=vset,
                row=tuple(row),
                int_form=form,
                divisor=g,
            ))
        return tuple(out)

    def is_simple(self) -> bool:
        """True when every vertex lies on exactly dim facets."""
        counts = [0] * len(self.vertices)
        for f in self.facets:
            for i in f.vertex_set:
                counts[i] += 1
        return all(c == self.dim for c in counts)

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

    One Bareiss elimination of the rows (x, 1), constant column last,
    holds the affine hull as its kernel.  Its k + 1 pivot columns ``cols``
    are independent on the points and span the others there, so forms on
    ``cols`` are the affine functions on aff(P), and the rows it pivots on
    are a start simplex.  The facets are the extreme rays of the cone of
    forms y on ``cols`` with <y, row> >= 0 on every point, found by
    Motzkin's double description (Fukuda & Prodon 1996): start from the
    simplex's cone, whose rays are read off the reduced echelon form of
    [B^T | I], B the simplex's rows (:func:`_adjugate_rays`), add the
    other points one at a time, and join a ray on its positive side with
    one on its negative side when the combinatorial test finds them
    adjacent.  The extreme rays do not depend on the start.  Rays are
    primitive; zero sets are bitmasks over point indices.

    Each facet's form is its ray on ``cols``, 0 elsewhere: the first
    kernel vector of the facet's rows (p, 1) that does not vanish on every
    point, oriented >= 0.  For the facet's pivot columns are ``cols`` less
    one column e (a column that depends on those left of it on all points
    does so on the facet).  A free f < e is outside ``cols``: its vector is
    the relation writing column f through ``cols`` left of it on every
    point, so it vanishes on all of them; the vector of e is supported in
    ``cols``, independent on the points, so it does not: it is the ray.
    """
    homog = [v + (1,) for v in verts]
    ech, cols, base = _echelon_int(homog, d + 1)
    aff = [(vec[:d], vec[d]) for vec in _kernel_of_echelon(ech, cols, d + 1)]
    k = len(cols) - 1
    if k == 0:
        return aff, []
    rows = homog if k == d else [tuple([x[c] for c in cols]) for x in homog]
    simplex = sum(1 << b for b in base)
    rays = [(ray, simplex ^ 1 << b) for ray, b in zip(
        _adjugate_rays([rows[b] for b in base]), base)]
    for i, row in enumerate(rows):
        if simplex >> i & 1:
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
        if k < d:
            form = [0] * (d + 1)
            for c, x in zip(cols, ray):
                form[c] = x
            ray = tuple(form)
        facets.append(((ray[:d], ray[d]), tuple([i for i in range(len(verts)) if zs >> i & 1])))
    return aff, sorted(facets, key=lambda fc: fc[1])


def _bounds(aff, facets, j: int) -> tuple[tuple, tuple]:
    """(lows, highs): the forms of the hull (aff, facets) in R^(j+1) with x_j in them.

    These are the facet forms with a positive and a negative x_j coefficient
    or, when an affine hull equation has x_j in it, it and its negation alone,
    each as (terms, b, a): the nonzero (index, coefficient) pairs on
    x_1..x_{j-1}, the constant, and the x_j coefficient, made positive.
    """
    eq = next(((a, b) for a, b in aff if a[j]), None)
    forms = ([form for form, _ in facets] if eq is None
             else [eq, (tuple([-c for c in eq[0]]), -eq[1])])
    lows, highs = [], []
    for a, b in forms:
        if a[j]:
            terms = tuple([(i, c) for i, c in enumerate(a[:j]) if c])
            (lows if a[j] > 0 else highs).append((terms, b, abs(a[j])))
    return tuple(lows), tuple(highs)


# Holds all 3 + 15 + 255 nonempty 0/1 point sets in R^1..R^3, so a sweep of
# (0,1)-polytopes in R^4 builds each prefix projection's hull once.
PREFIX_MEMO_SIZE = 512


@lru_cache(maxsize=PREFIX_MEMO_SIZE)
def _prefix_bounds(proj: tuple[Point, ...]) -> tuple[tuple, tuple]:
    """The :func:`_bounds` of conv(proj), for sorted distinct points ``proj``."""
    j = len(proj[0]) - 1
    return _bounds(*_hull_candidates(proj, j + 1), j)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _vertex_flags(n: int, cands) -> list[bool]:
    """Which of the n points are vertices, read off the facet incidences.

    The facets through a point cut out the smallest face containing it,
    and the points on that face are the intersection of their ``on``
    sets (all points when no facet passes through it).  A face of
    dimension >= 1 holds at least two of its generating points, so a
    point is a vertex iff that intersection is the point alone.
    """
    meet = [(1 << n) - 1] * n
    for _, on in cands:
        mask = sum(1 << i for i in on)
        for i in on:
            meet[i] &= mask
    return [m == 1 << i for i, m in enumerate(meet)]
