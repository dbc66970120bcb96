"""Slow reference implementations the fast library code is checked against.

Everything here favours obviousness over speed: determinants by permutation
sums, rank by plain rational elimination, minor gcds by full enumeration,
facets by trying every subset of dim-many points, planar hulls by the
monotone chain, planar lattice point counts by Pick's theorem.  None of it
shares code with the polyclass internals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from polyclass import IntMatrix


def det_by_permutations(rows: list[list[int]]) -> int:
    """Determinant as the signed sum over all permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i in range(n):
            term *= rows[i][perm[i]]
        if term:
            inversions = sum(
                1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            total += -term if inversions % 2 else term
    return total if n else 1


def minor_gcd(m: IntMatrix, size: int) -> int:
    """gcd of every size x size minor, each expanded by permutations."""
    if size == 0:
        return 1
    g = 0
    for rs in combinations(range(m.rows), size):
        for cs in combinations(range(m.cols), size):
            sub = [[m.entries[r][c] for c in cs] for r in rs]
            g = gcd(g, det_by_permutations(sub))
    return g


def invariant_factors_by_minors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors as successive minor-gcd ratios g_i / g_{i-1}."""
    factors = []
    prev = 1
    for i in range(1, min(m.rows, m.cols) + 1):
        g = minor_gcd(m, i)
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def pivot_columns(rows: list[list[int]], ncols: int) -> list[int]:
    """Pivot columns of the reduced row echelon form, by rational elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def rank_by_elimination(m: IntMatrix) -> int:
    """Rank over the rationals by textbook Gaussian elimination."""
    return len(pivot_columns([list(row) for row in m.entries], m.cols))


def hull_facets_by_subsets(points: list[tuple[int, ...]]):
    """Facets of conv(points) by trying every subset of dim-many points.

    The points are first written in the coordinates of the pivot columns
    of their differences, where they span their affine hull.  Each
    k-subset then spans a candidate hyperplane, whose form is the
    generalized cross product of the homogenized subset (signed maximal
    minors, each expanded by permutations); it is a facet when every
    point lies on one side.

    Returns a list, sorted by index tuple, of (on, values, form): ``on``
    the sorted indices of the points on the facet, ``values`` the
    primitive nonnegative values of the facet on all points, and ``form``
    the primitive integer form (a, b), nonnegative on the points, when
    they are full-dimensional, None otherwise.
    """
    n, d = len(points), len(points[0])
    diffs = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    cols = pivot_columns(diffs, d)
    k = len(cols)
    if k == 0:
        return []
    rows = [[p[c] for c in cols] + [1] for p in points]
    facets = {}
    found: list[set[int]] = []
    for sub in combinations(range(n), k):
        # A subset of a known facet spans that facet or nothing.
        if any(on.issuperset(sub) for on in found):
            continue
        mat = [rows[i] for i in sub]
        form = [(-1) ** j * det_by_permutations([r[:j] + r[j + 1:] for r in mat])
                for j in range(k + 1)]
        vals = [sum(a * x for a, x in zip(form, row)) for row in rows]
        if min(vals) < 0 < max(vals) or not any(vals):
            continue
        sign = 1 if max(vals) > 0 else -1
        g_vals = gcd(*vals)
        g_form = gcd(*form)
        on = tuple(i for i, v in enumerate(vals) if v == 0)
        found.append(set(on))
        facets[on] = (tuple(sign * v // g_vals for v in vals),
                      (tuple(sign * c // g_form for c in form[:d]), sign * form[d] // g_form)
                      if k == d else None)
    return sorted((on, vals, form) for on, (vals, form) in facets.items())


def convex_hull_2d(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Extreme points of a planar point set, counterclockwise.

    Andrew's monotone chain with strict turns, so collinear boundary
    points are discarded, matching the strict vertex notion used by the
    library.  Collinear input collapses to the two endpoints.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def hull_vertices_2d(points: list[tuple[int, int]]) -> set[tuple[int, int]]:
    return set(convex_hull_2d(points))


def lattice_point_count_pick(hull: list[tuple[int, int]]) -> int:
    """Lattice points of a 2-polytope: Pick's theorem, A = I + B/2 - 1.

    ``hull`` lists the polygon's vertices in hull order (either
    orientation).  Returns I + B.
    """
    n = len(hull)
    twice_area = abs(sum(
        hull[i][0] * hull[(i + 1) % n][1] - hull[(i + 1) % n][0] * hull[i][1]
        for i in range(n)))
    boundary = sum(
        gcd(hull[(i + 1) % n][0] - hull[i][0], hull[(i + 1) % n][1] - hull[i][1])
        for i in range(n))
    interior = (twice_area - boundary + 2) // 2
    return interior + boundary


def order_hull_2d(points: set[tuple[int, int]]) -> list[tuple[int, int]]:
    """Arrange a planar vertex set in counterclockwise hull order."""
    return convex_hull_2d(list(points))
