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
is re-tested against the facets.  One bound loop, seeded with h times
the vertices' range on each axis, serves every coordinate; at each
prefix of the first n - 2 the last coordinate's forms are summed once,
and each value of x_{n-1} then adds one term per form with x_{n-1} in
it.  A bounded memo keyed by the projected points lets the members of
a family share those projections' hulls.  All arithmetic is on ``int``.

A (0,1)-polytope needs neither the walk at h = 1 nor the vertex check.
P lies in the unit cube, whose only lattice points are its corners, and
a corner in P is an extreme point of P, so it is one of the given points.
So the lattice points of P are exactly its vertices, and every distinct
0/1 input point is a vertex.  The slice bounds are then built only when
a walk at some h >= 2 first needs them.
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
    parent's vertex tuple.  A facet's id is its index in the parent's
    ``facets``.  An immutable named tuple with no ``__dict__``.
    """

    vertex_set: tuple[int, ...]
    row: tuple[int, ...]
    int_form: Form
    divisor: int


class Polytope:
    """Convex hull of integer points, canonicalized to lex-sorted vertices.

    The constructor is strict: every supplied point must be an actual
    vertex of the hull, checked at construction time unless the points
    are 0/1 and distinct, which makes them vertices (see the module
    docstring).  ``ambient_dim`` is read off the vertices, as their
    length, and ``dim`` is it minus the number of affine hull equations.
    """

    __slots__ = ("vertices", "dim", "__dict__")

    def __init__(self, vertices: Iterable[Sequence[int]]):
        verts = []
        for i, p in enumerate(map(tuple, vertices)):
            for j, v in enumerate(p):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise TypeError(f"vertex {i}, coordinate {j}: "
                                    f"expected an integer, got {v!r}")
            verts.append(tuple(int(v) for v in p))
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        if any(len(p) != len(verts[0]) for p in verts):
            raise ValueError("all vertices must have the same dimension")
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertices")
        self.vertices = tuple(sorted(verts))
        self._hull  # noqa: B018  -- forces the non-vertex check now

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

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
        if not self.is_01:  # distinct 0/1 points are all vertices
            for v, vertex in zip(self.vertices, _vertex_flags(len(self.vertices), cands)):
                if not vertex:
                    raise ValueError(f"point {v} is not a vertex of the hull")
        # Set here: perfbench's tracer reads dim before this value is cached.
        self.dim = self.ambient_dim - len(aff)
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

        Entry j is (lows, highs, least, most): that hull's :func:`_bounds`,
        from the bounded memo :func:`_prefix_bounds` a family's members
        share, and the vertices' least and greatest x_j.  For x_n the bounds
        are the polytope's own, split on x_{n-1}: a form whose last term is
        on x_{n-1}, with coefficient c, goes to entry n, (var_lows, var_highs),
        as (terms without it, b, c, a); every other form stays in entry n - 1.
        The walk reads no entry in R^1, so there is none.
        """
        n = self.ambient_dim
        if n < 2:
            return ()
        own, var = ([], []), ([], [])  # (lows, highs) of entries n - 1 and n
        for side, forms in enumerate(_bounds(*self._hull, n - 1)):
            for terms, b, a in forms:
                if terms and terms[-1][0] == n - 2:
                    var[side].append((terms[:-1], b, terms[-1][1], a))
                else:
                    own[side].append((terms, b, a))
        bounds = [_prefix_bounds(tuple(sorted({v[:j + 1] for v in self.vertices})))
                  for j in range(n - 1)] + [tuple(map(tuple, own))]
        return tuple([(*lh, min(col), max(col)) for lh, col in zip(bounds, zip(*self.vertices))]
                     + [tuple(map(tuple, var))])

    def _scaled_lattice_points(self, h: int) -> tuple[Point, ...]:
        """Integer points of the dilation h*P in lex order, without building h*P.

        A form (a, b) valid for P turns into (a, h*b) for h*P.  The walk
        fixes x_1, x_2, ... in turn.  Write P_j for the projection of P
        onto x_1..x_j, so h*P_{j-1} is the projection of h*P_j.  Once
        x_1..x_{j-1} is a point of h*P_{j-1}, the x_j over it in h*P_j
        form a nonempty interval, cut out by the forms of P_j with x_j in
        them alone: every other form is valid on P_{j-1} and holds
        already.  One loop takes the ceil of the lows and one the floor of
        the highs, seeded with h times the vertices' least and greatest
        x_j: P_j's x_j-range is theirs, so a seed binds only where no form
        bounds that side.  An affine hull equation is a low and a high, so
        a non-integral pinned value leaves lo > hi.  So every integer x_j
        in range extends the prefix to a point of h*P_j, and at j = n to a
        point of h*P: no point is re-tested, and the only waste is prefixes
        whose integer interval is empty.  A (0,1)-polytope at h = 1 takes
        no walk: its lattice points are its vertices (see the module
        docstring), which are already in lex order.

        x_{n-1} and x_n share one inner loop.  At each prefix x_1..x_{n-2},
        x_{n-1}'s interval is held while the same two loops bound x_n by
        its forms without an x_{n-1} term; each other one keeps its partial
        sum s, and each x_{n-1} = v costs one (s + c*v) // a, c its x_{n-1}
        coefficient.  In R^1 the interval is h times the vertices'.
        """
        if h == 1 and self.is_01:
            return self.vertices
        n = self.ambient_dim
        if n == 1:
            return tuple([(w,) for w in range(h * self.vertices[0][0],
                                              h * self.vertices[-1][0] + 1)])
        slices = self._slices
        var_lows, var_highs = slices[n]
        k = n - 2
        out: list[Point] = []
        x = [0] * k
        top = [0] * k
        j = 0
        while True:
            lows, highs, lo, hi = slices[j]
            lo, hi = h * lo, h * hi
            for terms, b, a in lows:
                s = h * b
                for i, c in terms:
                    s += c * x[i]
                v = -(s // a)
                if v > lo:
                    lo = v
            for terms, b, a in highs:
                s = h * b
                for i, c in terms:
                    s += c * x[i]
                v = s // a
                if v < hi:
                    hi = v
            if j < k:
                x[j] = lo
                top[j] = hi
                if lo <= hi:
                    j += 1
                    continue
            elif j == k:
                first, last = lo, hi  # x_{n-1}'s interval, while x_n is bounded
                if lo <= hi:
                    j += 1
                    continue
            else:
                # lo and hi bound x_n here; each var form is summed once, then per v.
                sums_lo = []
                for terms, b, c, a in var_lows:
                    s = h * b
                    for i, ci in terms:
                        s += ci * x[i]
                    sums_lo.append((s, c, a))
                sums_hi = []
                for terms, b, c, a in var_highs:
                    s = h * b
                    for i, ci in terms:
                        s += ci * x[i]
                    sums_hi.append((s, c, a))
                prefix = tuple(x)
                for v in range(first, last + 1):
                    w_lo = lo
                    for s, c, a in sums_lo:
                        w = -((s + c * v) // a)
                        if w > w_lo:
                            w_lo = w
                    w_hi = hi
                    for s, c, a in sums_hi:
                        w = (s + c * v) // a
                        if w < w_hi:
                            w_hi = w
                    pv = prefix + (v,)
                    for w in range(w_lo, w_hi + 1):
                        out.append(pv + (w,))
                j = k
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
        for form, vset in raw:
            a, b = form
            row = [b] * len(pts)
            for c, col in zip(a, cols):
                if c:
                    row = list(map(add, row, map(mul, repeat(c), col)))
            g = gcd(*row)
            if g > 1:
                row = [v // g for v in row]
            out.append(FacetData(vertex_set=vset, row=tuple(row), int_form=form, divisor=g))
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
