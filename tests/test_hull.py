"""Facet enumeration against the subset-scan oracle, and hulls out of its reach."""

from __future__ import annotations

from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from polyclass import (
    Graph,
    Polytope,
    all_01_polytopes,
    cube,
    dilate,
    edge_polytope,
    intlinalg,
    polytope,
    product,
    pyramid,
    simplex,
)
from support import hull_of_points


def birkhoff(n: int) -> Polytope:
    return Polytope([tuple(int(s[i] == j) for i in range(n) for j in range(n))
                     for s in permutations(range(n))])


def zeros_and_values(form, points) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a, b = form
    vals = [sum(c * x for c, x in zip(a, pt)) + b for pt in points]
    g = gcd(*vals)
    return tuple(i for i, v in enumerate(vals) if v == 0), tuple(v // g for v in vals)


def assert_hull_matches_oracle(points) -> Polytope:
    """Compare the hull of ``points`` with the oracles on points and vertices.

    The double description over all the points, which ``_prefix_bounds``
    runs on projections, is compared first; its forms and incidences must
    be those the subset scan finds.
    """
    pts = sorted(set(points))
    p = hull_of_points(pts)
    facets = p._hull[1]
    ref = oracles.hull_facets_by_subsets(pts)
    assert [(on, form) for form, on in polytope._hull_candidates(pts, len(pts[0]))[1]] == \
        [(on, form) for on, _, form in ref]
    assert sorted(zeros_and_values(form, pts) for form, _ in facets) == \
        [(on, vals) for on, vals, _ in ref]
    assert list(p.vertices) == oracles.hull_vertices_by_rank(pts, ref)
    if tuple(pts) != p.vertices:
        ref = oracles.hull_facets_by_subsets(list(p.vertices))
    assert [zeros_and_values(form, p.vertices) for form, _ in facets] == \
        [(on, vals) for on, vals, _ in ref]
    assert [vset for _, vset in facets] == [on for on, _, _ in ref]
    # FacetData.int_form is this form; p.facets would also evaluate it on
    # every lattice point.
    assert [form for form, _ in facets] == [form for _, _, form in ref]
    return p


BRIDGE = Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)])
NAMED = {
    "cube4": cube(4),
    "birkhoff-b3": birkhoff(3),
    "edge-k5": edge_polytope(Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])),
    "edge-k6": edge_polytope(Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])),
    "edge-bridge": edge_polytope(BRIDGE),
    "pyramid-d2xd2": pyramid(product(simplex(2), simplex(2))),
    "cross4-x2": Polytope([tuple(s * 2 * (i == j) for j in range(4))
                           for i in range(4) for s in (1, -1)]),
    "simplex3-x8": dilate(simplex(3), 8),
    # Pins with coefficients 2 and 4: odd prefixes have no integer extension.
    "segment-421": Polytope([(0, 0, 0), (4, 2, 1)]),
}


class TestHullOracle:
    def test_exhaustive_threedim_family(self):
        family = list(all_01_polytopes(3))
        assert len(family) == 151
        for p in family:
            assert_hull_matches_oracle(p.vertices)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_corpus(self, name):
        p = NAMED[name]
        assert assert_hull_matches_oracle(p.vertices) == p

    def test_lower_dimensional_forms_are_those_of_the_lex_first_subset(self):
        # Forms modulo the affine hull are a choice; these are the ones the
        # lex-first subset scan reached, and that analyze --json prints.
        assert [f.int_form for f in birkhoff(3).facets] == [
            ((1, 0, 0, 0, 0, 0, 0, 0, 0), 0), ((0, 0, -1, 1, 1, 0, 0, 0, 0), 0),
            ((1, 1, 1, -1, -1, 0, 0, 0, 0), 0), ((0, 1, 0, 0, 0, 0, 0, 0, 0), 0),
            ((1, 0, 1, 0, -1, 0, 0, 0, 0), 0), ((0, 0, 0, 1, 0, 0, 0, 0, 0), 0),
            ((0, 0, 0, 0, 1, 0, 0, 0, 0), 0), ((0, 1, 1, -1, 0, 0, 0, 0, 0), 0),
            ((0, 0, 1, 0, 0, 0, 0, 0, 0), 0)]
        c5 = edge_polytope(Graph(5, [(i, (i + 1) % 5) for i in range(5)]))
        assert [f.int_form for f in c5.facets] == [
            ((1, 1, -1, 1, -1), 0), ((1, -1, 1, -1, 1), 0), ((-1, 1, 1, -1, 1), 0),
            ((1, -1, 1, 1, -1), 0), ((-1, 1, -1, 1, 1), 0)]

    def test_non_vertices_are_on_their_facets(self):
        square = [(0, 0), (2, 0), (0, 2), (2, 2)]
        p = assert_hull_matches_oracle(square + [(1, 0), (1, 1)])
        assert p == Polytope(square)

    def test_start_simplex_of_non_vertices(self):
        # The square [0,2]^2 with its edge midpoints and centre: the start
        # simplex the hull pivots on, (1, 0), (0, 1), (0, 2), holds two
        # edge midpoints.
        pts = [(x, y) for x in range(3) for y in range(3)]
        corners = [(0, 0), (0, 2), (2, 0), (2, 2)]
        _, _, base = intlinalg._echelon_int([v + (1,) for v in pts], 3)
        assert any(pts[b] not in corners for b in base)
        assert assert_hull_matches_oracle(pts) == Polytope(corners)


@st.composite
def embedded_generating_sets(draw):
    """Integer points in Z^k with midpoints and the barycenter added, mapped into Z^(k+m).

    The points are scaled by 2n first, so the midpoint of any two of the
    n points (on the boundary or inside) and their barycenter (inside) are
    lattice points.  The affine map x -> Mx + t is random, so it may also
    lower the dimension.
    """
    k = draw(st.integers(1, 3))
    m = draw(st.integers(0, 2))
    coord = st.integers(-2, 2)
    verts = draw(st.lists(st.tuples(*[coord] * k), min_size=k + 1, max_size=7, unique=True))
    n = len(verts)
    pts = [tuple(2 * n * x for x in v) for v in verts]
    idx = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(idx, idx), max_size=4)):
        pts.append(tuple(n * (a + b) for a, b in zip(verts[i], verts[j])))
    pts.append(tuple(2 * sum(col) for col in zip(*verts)))
    rows = draw(st.lists(st.tuples(*[coord] * k), min_size=k + m, max_size=k + m))
    shift = draw(st.tuples(*[st.integers(-5, 5)] * (k + m)))
    return [tuple(sum(r * x for r, x in zip(row, pt)) + s for row, s in zip(rows, shift))
            for pt in pts]


class TestHullOracleProperties:
    @settings(deadline=None, max_examples=100)
    @given(embedded_generating_sets())
    def test_embedded_generating_sets(self, points):
        p = assert_hull_matches_oracle(points)
        d = len(points[0])
        assert p.dim == len(oracles.pivot_columns([list(x) + [1] for x in points], d + 1)) - 1

    @settings(deadline=None, max_examples=100)
    @given(embedded_generating_sets())
    def test_affine_hull_forms_are_the_kernel_of_the_rows_x_1(self, points):
        d = len(points[0])
        basis = oracles.kernel_basis_by_elimination([list(x) + [1] for x in points], d + 1)
        assert hull_of_points(points).affine_hull_forms == \
            tuple((vec[:d], vec[d]) for vec in basis)

    @settings(deadline=None, max_examples=100)
    @given(embedded_generating_sets())
    def test_from_points_builds_the_hull_of_its_vertices(self, points):
        # The double description over all the points, non-vertices included,
        # gives the affine hull and facets of the polytope on its vertices.
        pts = sorted(set(points))
        aff, cands = polytope._hull_candidates(pts, len(pts[0]))
        p = hull_of_points(pts)
        index = {v: i for i, v in enumerate(p.vertices)}
        on_vertices = sorted((form, tuple(index[pts[i]] for i in on if pts[i] in index))
                             for form, on in cands)
        assert (tuple(aff), on_vertices) == (p._hull[0], sorted(p._hull[1]))


# A member of the analyze-wide benchmark pool (seed 0), one 0/1 vertex per string.
WIDE_MEMBER = [tuple(map(int, s)) for s in (
    "00011 00100 01000 01001 10001 10010 10011 10110 11000 11001 11011 11110").split()]


class TestHullWork:
    """Eliminations per hull, counted: no kernel or facet form is solved apart."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("make", [lambda: cube(4), lambda: Polytope(WIDE_MEMBER),
                                      lambda: birkhoff(3)],
                             ids=["cube4", "wide-member", "birkhoff-b3"])
    def test_hull_runs_two_eliminations(self, monkeypatch, make):
        # One of the points, which also holds the affine hull and the facet
        # forms, and one for the start rays, in any dimension.
        calls = [self.count_calls(monkeypatch, module, "_echelon_int")
                 for module in (polytope, intlinalg)]
        make()
        assert [len(c) for c in calls] == [1, 1]

    def test_dim_is_read_off_the_hull(self, monkeypatch):
        p = birkhoff(3)
        calls = [self.count_calls(monkeypatch, module, "_echelon_int")
                 for module in (polytope, intlinalg)]
        assert p.dim == 4
        assert calls == [[], []]


class TestHullWalls:
    """Hulls the subset scan took 15 s (cube5) to far beyond a minute on."""

    def test_cube5(self):
        assert len(cube(5).facets) == 10

    def test_cube6(self):
        p = cube(6)
        assert len(p.vertices) == 64
        assert len(p.facets) == 12

    def test_birkhoff_b4(self):
        p = birkhoff(4)
        assert p.dim == 9
        assert len(p.facets) == 16
