"""Slow reference implementations the fast library code is checked against.

Everything here favours obviousness over speed: determinants by permutation
sums, rank and kernels by plain rational elimination, minor gcds by full
enumeration, expanded by permutations or, for matrices too large for that,
one Bareiss determinant per minor, facets by trying every subset of
dim-many points, vertices by the rank of the facets through them, lattice
points by scanning the whole ambient bounding box, planar hulls by the
monotone chain, planar lattice point counts by Pick's theorem, normality by
the level test at every height below the dimension or by a per-point
decomposition search up to the dimension, coordinate products by trying
every coordinate subset, pyramid peels one apex at a time, facet values
form by form and point by point, unit chains by a search over every ordered
sequence, reports by the stdlib's JSON encoder, the check battery with
normality decided on every polytope, the Segre classification from a
rebuilt peel core and its subset-scan factors, poset filters and stable
sets of graphs by a scan of every subset.
None of it shares code with the polyclass internals, except that the
Bareiss minors run the library's ``_echelon_int``, the normality level test
and the decomposition search take the points of h*P from the library's
slicing walk (the search also tests lattice membership on the library's
Hermite basis), the stepwise peel reads the library's facet rows, the facet
values start from the library's facet forms, the eager battery calls the
library's predicates, and the Segre rebuild calls the library's peel.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

from polyclass import (IntMatrix, InvariantViolation, Polytope, class_group, in_row_lattice,
                       is_compressed, is_normal, k_number, pyramid_peel)
from polyclass.intlinalg import _echelon_int
from polyclass.polytope import Point, _dot


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


def gcd_minors(m: IntMatrix, i: int) -> int:
    """gcd of all i-by-i minors of ``m`` (0 if they all vanish; 1 for i=0).

    The minors are enumerated at every size, each by Bareiss elimination,
    so the value never comes from ``snf``: a minor with fewer than i
    pivots is 0, else its last pivot is +-det.  The running gcd stops
    early once it reaches 1.

    >>> gcd_minors(IntMatrix.from_rows([[0, 1, 2], [2, 1, 0]]), 2)
    2
    >>> gcd_minors(IntMatrix.from_rows([[2, 4], [6, 8]]), 1)
    2
    """
    if not 0 <= i <= min(m.rows, m.cols):
        raise ValueError(f"minor size {i} out of range for {m.rows}x{m.cols} matrix")
    if i == 0:
        return 1
    g = 0
    for rsel in combinations(range(m.rows), i):
        picked = [m.entries[r] for r in rsel]
        for csel in combinations(range(m.cols), i):
            ech, pivots, _ = _echelon_int([[row[c] for c in csel] for row in picked], i)
            if len(pivots) == i:
                g = gcd(g, ech[-1][-1])
            if g == 1:
                return 1
    return g


def reduced_row_echelon(rows: list[list[int]], ncols: int):
    """(rows, pivot columns) of the reduced row echelon form over Q.

    Each pivot row is scaled to a leading 1 and cleared above and below.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [a / rows[r][col] for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def pivot_columns(rows: list[list[int]], ncols: int) -> list[int]:
    """Pivot columns of the reduced row echelon form, by rational elimination."""
    return reduced_row_echelon(rows, ncols)[1]


def kernel_basis_by_elimination(rows: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """Null space basis by back-substitution in the reduced row echelon form.

    One vector per free column f: 1 at f, 0 at the other free columns and
    minus the f-th entry of each pivot row at its pivot.  Each is scaled to
    a primitive integer vector whose first nonzero entry is positive.
    """
    ech, pivots = reduced_row_echelon(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, c in zip(ech, pivots):
            x[c] = -row[f]
        denom = lcm(*(v.denominator for v in x))
        ints = [int(v * denom) for v in x]
        g = gcd(*ints)
        sign = 1 if next(v for v in ints if v) > 0 else -1
        basis.append(tuple(sign * v // g for v in ints))
    return basis


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
    the primitive integer form (a, b), nonnegative on the points.  When
    the points are full-dimensional that is the cross product; else it is
    the first kernel vector of the facet's rows (p, 1) that does not
    vanish on every point.
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
                      if k == d else facet_form_by_kernel(points, on))
    return sorted((on, vals, form) for on, (vals, form) in facets.items())


def facet_form_by_kernel(points: list[tuple[int, ...]], on: tuple[int, ...]):
    """The first kernel vector of the facet's rows (p, 1) not vanishing on every point.

    ``on`` indexes the points of the facet.  The vector, a primitive form
    (a, b) by :func:`kernel_basis_by_elimination`, is oriented >= 0 on the
    points.  It depends only on the facet's affine span, so any points
    spanning the facet give it.
    """
    d = len(points[0])
    homog = [list(p) + [1] for p in points]
    for vec in kernel_basis_by_elimination([homog[i] for i in on], d + 1):
        vals = [sum(a * x for a, x in zip(vec, row)) for row in homog]
        if any(vals):
            sign = 1 if max(vals) > 0 else -1
            return tuple(sign * c for c in vec[:d]), sign * vec[d]


def hull_vertices_by_rank(points: list[tuple[int, ...]], facets) -> list[tuple[int, ...]]:
    """The points of ``points`` that are vertices of their hull, in input order.

    ``facets`` is ``hull_facets_by_subsets(points)``.  A point is a vertex
    iff the facets through it cut out that point alone in the affine hull,
    i.e. iff their value vectors over all points (each an affine function
    on the affine hull, which the points span) have rank dim.
    """
    d = len(points[0])
    dim = len(pivot_columns([[a - b for a, b in zip(p, points[0])] for p in points[1:]], d))
    return [p for i, p in enumerate(points)
            if len(pivot_columns([list(vals) for on, vals, _ in facets if i in on],
                                 len(points))) == dim]


def lattice_points_by_box_scan(p, h: int) -> tuple[tuple[int, ...], ...]:
    """Integer points of h*P in lex order, by testing every point of its bounding box.

    The box is the product of the coordinate ranges of h times the
    vertices.  A point is kept when it satisfies every affine hull
    equation and facet inequality of ``p._hull`` with the constant scaled
    by h (the hull itself has the subset-scan oracle above).  The cost is
    the box volume, so use it only where that is small.
    """
    aff, facets = p._hull
    eqs = [(a, h * b) for a, b in aff]
    ineqs = [(a, h * b) for (a, b), _ in facets]
    ranges = [range(h * min(col), h * max(col) + 1) for col in zip(*p.vertices)]
    return tuple(
        pt for pt in product(*ranges)
        if all(sum(c * x for c, x in zip(a, pt)) + b == 0 for a, b in eqs)
        and all(sum(c * x for c, x in zip(a, pt)) + b >= 0 for a, b in ineqs))


def lattice_echelon_basis(vectors: list[tuple[int, ...]]) -> list[list[int]]:
    """An echelon basis of the lattice the integer vectors span, by Euclid's algorithm.

    Column by column, the rows with a nonzero entry there are reduced
    against the one of least absolute entry until a single one is left.
    """
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    for c in range(len(vectors[0]) if vectors else 0):
        while True:
            live = [r for r in rows if r[c]]
            if len(live) <= 1:
                break
            piv = min(live, key=lambda r: abs(r[c]))
            rows = [r if r is piv or not r[c]
                    else [a - r[c] // piv[c] * b for a, b in zip(r, piv)] for r in rows]
            rows = [r for r in rows if any(r)]
        live = [r for r in rows if r[c]]
        if live:
            basis.append(live[0])
            rows = [r for r in rows if r is not live[0]]
    return basis


def is_normal_by_levels(p) -> bool:
    """Normality by the level test at every height 2 .. dim - 1, without reduction.

    Level h is the set of sums of h lattice points, built from level h - 1;
    P is normal when every point of h*P that lies in the lattice L spanned
    by the (v, 1) is in level h.  Points are plain tuples and membership in
    L is read off an echelon basis of L by back-substitution.  Heights
    below the dimension suffice because the Hilbert basis of the cone
    lives there; no pyramid or product is used.  The points of h*P come
    from ``p._scaled_lattice_points``, which the tests check against
    ``lattice_points_by_box_scan``: the box scan would cost the volume of
    a box in up to dim - 1 times the range of every coordinate.
    """
    gens = p.lattice_points
    rows = lattice_echelon_basis([g + (1,) for g in gens])

    def in_lattice(v):
        v = list(v)
        for row in rows:
            c = next(i for i, x in enumerate(row) if x)
            q, r = divmod(v[c], row[c])
            if r:
                return False
            v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    level = set(gens)
    for h in range(2, p.dim):
        level = {tuple(a + b for a, b in zip(s, g)) for s in level for g in gens}
        for z in p._scaled_lattice_points(h):
            if z not in level and in_lattice(z + (h,)):
                return False
    return True


def is_normal_bruteforce(p: Polytope) -> bool:
    """Independent normality oracle: per-point decomposability search.

    For each height h = 2 .. max(2, dim) (not dim - 1: the extra degree
    also exercises the height bound the fast path relies on), every point
    of h*P in the lattice at height h must split off some generator with
    the remainder decomposable at height h - 1.  Top-down with
    memoization; intentionally a different algorithm from ``is_normal``.
    """
    gens = p.lattice_points
    gen_set = set(gens)
    lat = p.lattice_height_basis
    aff = p.affine_hull_forms
    ineqs = tuple(form for form, _ in p._hull[1])
    memo: dict[tuple[Point, int], bool] = {}

    def in_scaled(z: Point, h: int) -> bool:
        for a, b in aff:
            if _dot(a, z) + h * b != 0:
                return False
        for a, b in ineqs:
            if _dot(a, z) + h * b < 0:
                return False
        return True

    def decomposable(z: Point, h: int) -> bool:
        if h == 1:
            return z in gen_set
        key = (z, h)
        cached = memo.get(key)
        if cached is not None:
            return cached
        res = False
        for g in gens:
            w = tuple(a - b for a, b in zip(z, g))
            if in_scaled(w, h - 1) and decomposable(w, h - 1):
                res = True
                break
        memo[key] = res
        return res

    for h in range(2, max(2, p.dim) + 1):
        for z in p._scaled_lattice_points(h):
            if in_row_lattice(lat, z + (h,)) and not decomposable(z, h):
                return False
    return True


def coordinate_blocks_by_subsets(vertices) -> list[list[int]]:
    """Finest splitting of a vertex set into a product over coordinate blocks.

    Coordinates constant on the vertices are dropped.  Every subset S of
    the others is tried: it splits when the vertex set is the product of
    its projections to S and to the complement.  Splitting sets are
    closed under intersection, so the least one through each coordinate
    is well defined; these are the blocks, ordered by first coordinate.
    The cost is 2^c pairs of projections for c varying coordinates.
    """
    var = [j for j, col in enumerate(zip(*vertices)) if min(col) < max(col)]
    total = len(set(vertices))

    def size(coords):
        return len({tuple(v[j] for j in coords) for v in vertices})

    splitting = []
    for mask in range(1, 1 << len(var)):
        s = [j for i, j in enumerate(var) if mask >> i & 1]
        if size(s) * size([j for j in var if j not in s]) == total:
            splitting.append(set(s))
    blocks = []
    for j in var:
        block = set(var)
        for s in splitting:
            if j in s:
                block &= s
        if sorted(block) not in blocks:
            blocks.append(sorted(block))
    return blocks


def pyramid_peel_stepwise(p):
    """Lattice-pyramid apexes peeled one at a time: ``(core, apex count)``.

    While the core has dimension >= 1, the first of its facets in
    canonical order with one lattice point off it is the base, and the
    core becomes the polytope on the base's vertices.
    """
    core, apexes = p, 0
    while core.dim >= 1:
        base = next((f for f in core.facets if len(f.row) - f.row.count(0) == 1), None)
        if base is None:
            break
        core = Polytope([core.vertices[i] for i in base.vertex_set])
        apexes += 1
    return core, apexes


def facet_rows_by_forms(p) -> list[tuple[int, ...]]:
    """Each facet's values on the lattice points, one point at a time.

    The facet's integer form is evaluated at every lattice point and the
    resulting vector divided by its gcd.
    """
    rows = []
    for f in p.facets:
        a, b = f.int_form
        vals = [sum(c * x for c, x in zip(a, pt)) + b for pt in p.lattice_points]
        g = gcd(*vals)
        rows.append(tuple(v // g for v in vals))
    return rows


def unit_chain_length_by_search(p) -> int:
    """Longest unit chain, by depth-first search over ordered (point, facet) sequences.

    A sequence extends by a facet not yet used and a point not yet used
    that has value 1 on that facet and value 0 on every earlier one.
    Nothing is memoized and the search never stops early, so its cost is
    the number of such sequences.
    """
    rows = facet_rows_by_forms(p)

    def longest(facets: list[int], free: list[int]) -> int:
        # free: the unused points with value 0 on every facet so far.
        best = len(facets)
        for f, row in enumerate(rows):
            if f not in facets:
                for i in free:
                    if row[i] == 1:
                        rest = [j for j in free if j != i and row[j] == 0]
                        best = max(best, longest(facets + [f], rest))
        return best

    return longest([], list(range(len(p.lattice_points))))


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


def json_report_by_stdlib(doc) -> str:
    """The ``analyze --json`` bytes of a report dict, by the stdlib encoder."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def polytope_checks_eager(p) -> dict[str, bool | None]:
    """``polytope_checks`` with ``is_normal`` run on every polytope, whatever the verdicts read."""
    cg = class_group(p)
    chain = k_number(p)
    norm = is_normal(p)
    comp = is_compressed(p)
    tf = cg.is_torsionfree
    res = {
        "unit_chain_factors_one": all(s == 1 for s in cg.full_factors[:chain.k]),
        "chain_length_bound": chain.k <= p.dim + 1,
        "full_chain_torsionfree": chain.k < p.dim + 1 or tf,
        "compressed_normal_torsionfree": not comp or (norm and tf),
    }
    if p.is_01:
        nfacets = len(p.facets)
        class_z = cg.free_rank == 1 and tf
        res["facet_count_iff_class_z"] = (nfacets == p.dim + 2) == (norm and class_z)
        res["few_facets_normal_torsionfree"] = nfacets > p.dim + 2 or (norm and tf)
    else:
        res["facet_count_iff_class_z"] = None
        res["few_facets_normal_torsionfree"] = None
    return res


def classify_segre_by_rebuild(p):
    """``(tag, simplex_dims, apex_count)`` of a (0,1)-polytope, from a rebuilt peel core.

    With dim + 2 facets the peel core is built by ``pyramid_peel`` and
    must be simple with dim + 2 facets, and its factors, the projections
    of its vertices onto the blocks of ``coordinate_blocks_by_subsets``,
    must be two simplices: e + 1 distinct points spanning dimension e; a
    failure raises ``InvariantViolation``.  The class group and normality
    cross-check of ``classify_segre`` is left out.
    """
    if p.dim < 1 or len(p.facets) != p.dim + 2:
        return "NOT_APPLICABLE", None, 0
    core, apexes = pyramid_peel(p)
    if core.dim < 2 or len(core.facets) != core.dim + 2 or not core.is_simple():
        raise InvariantViolation("peel core is not simple with dim + 2 facets")
    factors = []
    for block in coordinate_blocks_by_subsets(core.vertices):
        proj = sorted({tuple(v[j] for j in block) for v in core.vertices})
        dim = len(pivot_columns([[a - b for a, b in zip(q, proj[0])] for q in proj], len(block)))
        factors.append((len(proj), dim))
    if len(factors) != 2 or any(n != dim + 1 for n, dim in factors):
        raise InvariantViolation("peel core is not a product of two simplices")
    a, b = sorted(dim for _, dim in factors)
    return "SEGRE", (a, b), apexes


def _subsets_by_scan(n: int, keep) -> list[frozenset[int]]:
    """Every subset of 0..n-1 that ``keep`` accepts, ordered by sorted element lists."""
    subsets = [frozenset(i for i in range(n) if m >> i & 1) for m in range(1 << n)]
    return sorted((s for s in subsets if keep(s)), key=sorted)


def filters_by_scan(poset) -> list[frozenset[int]]:
    """The subsets that hold everything above each of their elements."""
    n = poset.n
    return _subsets_by_scan(
        n, lambda s: all(j in s for i in s for j in range(n) if poset.leq[i][j]))


def stable_sets_by_scan(graph) -> list[frozenset[int]]:
    """The subsets that hold no edge."""
    return _subsets_by_scan(graph.n, lambda s: not any(a in s and b in s for a, b in graph.edges))
